package scenario_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"vvd/internal/core"
	"vvd/internal/dataset"
	"vvd/internal/estimate"
	"vvd/internal/kalman"
	"vvd/internal/metrics"
	"vvd/internal/scenario"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/conformance.json from this build's outputs")

// conformanceConfig is the fixed tiny campaign every scenario is measured
// on. Its scale is frozen with the goldens: changing it is a golden update.
func conformanceConfig() dataset.Config {
	cfg := dataset.DefaultConfig()
	cfg.Sets = 3
	cfg.PacketsPerSet = 10
	cfg.PSDULen = 24
	cfg.Seed = 20260728
	cfg.RenderImages = true
	return cfg
}

// scenarioMetrics generates one scenario's campaign and drives the whole
// estimation pipeline end to end — reception regeneration, CFO correction,
// LS and MMSE preamble estimation, an AR(5) Kalman tracker and a small
// trained VVD — then condenses the run into a handful of formatted summary
// numbers. Any numeric drift anywhere in the pipeline (geometry, DSP,
// store, estimators, training) moves at least one of them.
func scenarioMetrics(t *testing.T, name string) map[string]string {
	t.Helper()
	cfg, err := scenario.Resolve(name, conformanceConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cb := dataset.CombinationsFor(len(c.Sets), 1)[0]

	var series [][]complex128
	for _, p := range c.TrainingPackets(cb) {
		series = append(series, p.PerfectAligned)
	}
	kal, err := kalman.Fit(series, 5, 1e-9)
	if err != nil {
		t.Fatalf("%s: kalman fit: %v", name, err)
	}
	tc := core.DefaultTrainConfig()
	tc.Epochs = 4
	tc.Batch = 8
	vvd, _, err := core.Train(c, cb, dataset.LagCurrent, tc)
	if err != nil {
		t.Fatalf("%s: vvd train: %v", name, err)
	}

	type acc struct {
		sum float64
		n   int
	}
	score := func(a *acc, est []complex128, ref []complex128) {
		aligned := estimate.AlignPhase(est, ref)
		a.sum += metrics.SqError(aligned, ref)
		a.n += len(ref)
	}
	var ls, mmse, kalAcc, vvdAcc, energy acc
	detected := 0
	test := c.TestPackets(cb)
	for _, p := range test {
		_, _, rec, err := c.ReceptionPacket(p)
		if err != nil {
			t.Fatalf("%s: regenerating packet %d: %v", name, p.Index, err)
		}
		rxc, _ := c.Receiver.CorrectCFO(rec.Waveform)
		if p.PreambleDetected {
			detected++
		}
		lsEst, err := c.Receiver.EstimatePreamble(rxc)
		if err != nil {
			t.Fatalf("%s: LS estimate: %v", name, err)
		}
		score(&ls, lsEst, p.Perfect)
		mmseEst, err := c.Receiver.EstimatePreambleMMSE(rxc)
		if err != nil {
			t.Fatalf("%s: MMSE estimate: %v", name, err)
		}
		score(&mmse, mmseEst, p.Perfect)
		pred, err := kal.Predict()
		if err != nil {
			t.Fatalf("%s: kalman predict: %v", name, err)
		}
		if kal.Seen() > 0 {
			score(&kalAcc, pred, p.Perfect)
		}
		if err := kal.Update(p.PerfectAligned); err != nil {
			t.Fatalf("%s: kalman update: %v", name, err)
		}
		vvdEst, err := vvd.Estimate(p.Images[dataset.LagCurrent])
		if err != nil {
			t.Fatalf("%s: vvd estimate: %v", name, err)
		}
		score(&vvdAcc, vvdEst, p.Perfect)
		for _, tap := range p.TrueCIR {
			energy.sum += real(tap)*real(tap) + imag(tap)*imag(tap)
		}
		energy.n++
	}

	mse := func(a acc) string {
		if a.n == 0 {
			return "-"
		}
		v := a.sum / float64(a.n)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s: non-finite metric", name)
		}
		return fmt.Sprintf("%.6e", v)
	}
	return map[string]string{
		"availability": fmt.Sprintf("%.4f", float64(detected)/float64(len(test))),
		"cir_energy":   mse(energy),
		"mse_ls":       mse(ls),
		"mse_mmse":     mse(mmse),
		"mse_kalman":   mse(kalAcc),
		"mse_vvd":      mse(vvdAcc),
	}
}

// TestScenarioConformanceGoldens is the end-to-end conformance suite: for
// every preset it generates a tiny campaign, runs LS/MMSE/Kalman/VVD
// estimation over the test partition and pins the summary metrics against
// the committed goldens. A failure names the drifting scenario and
// metric; after an *intended* numeric change, regenerate with
//
//	go test ./internal/scenario -run TestScenarioConformanceGoldens -update-golden
func TestScenarioConformanceGoldens(t *testing.T) {
	path := filepath.Join("testdata", "conformance.json")
	got := map[string]map[string]string{}
	for _, name := range scenario.Names() {
		got[name] = scenarioMetrics(t, name)
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading goldens (run with -update-golden to create them): %v", err)
	}
	want := map[string]map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, gm := range got {
		wm, ok := want[name]
		if !ok {
			t.Errorf("scenario %q has no committed golden (run -update-golden)", name)
			continue
		}
		for metric, gv := range gm {
			if wv := wm[metric]; gv != wv {
				t.Errorf("scenario %q metric %s drifted: got %s, golden %s", name, metric, gv, wv)
			}
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("golden for %q has no preset (stale goldens?)", name)
		}
	}
}
