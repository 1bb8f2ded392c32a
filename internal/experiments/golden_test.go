package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"vvd/internal/core"
	"vvd/internal/dataset"
	"vvd/internal/metrics"
	"vvd/internal/nn"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/evaluation.json from this build's outputs")

// goldenParams is the fixed evaluation every golden is measured on: two
// combinations of a three-set campaign, all 14 techniques. Its scale is
// frozen with testdata/evaluation.json: changing it is a golden update.
func goldenParams() Params {
	cfg := dataset.DefaultConfig()
	cfg.Sets = 3
	cfg.PacketsPerSet = 24
	cfg.PSDULen = 24
	cfg.Seed = 20261018
	return Params{
		Campaign: cfg,
		Combos:   2,
		Train: core.TrainConfig{
			Arch:   core.Arch{Conv1: 2, Conv2: 2, Conv3: 4, Conv4: 4, Dense: 16, Pool: nn.AvgPool},
			Epochs: 3, Batch: 8, Workers: 2, Seed: 11, LR: 1e-3,
		},
		SkipPackets: 6,
		Workers:     3,
	}
}

// goldenAges are the estimate ages (in packets) of the aging golden.
var goldenAges = []int{0, 1, 5, 10}

// exactFloat renders v with the fewest digits that parse back to the
// same float64, so a golden string pins every bit.
func exactFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// counterGolden is one technique's counters in golden form.
func counterGolden(c *metrics.Counter) map[string]string {
	g := map[string]string{
		"packets":     strconv.Itoa(c.Packets),
		"packet_errs": strconv.Itoa(c.PacketErrs),
		"chips":       strconv.Itoa(c.Chips),
		"chip_errs":   strconv.Itoa(c.ChipErrs),
		"unavail":     strconv.Itoa(c.Unavail),
		"mse":         "-",
	}
	if c.HasMSE() {
		g["mse"] = exactFloat(c.MSE())
	}
	return g
}

// goldenLowSNRdB is the clear-channel SNR of the second golden engine,
// low enough that chips err under the perfect estimate, so the equalizer
// length moves its counts.
const goldenLowSNRdB = 7

// evaluationGolden runs the golden evaluation, the aging study, the Fig. 15
// strip and the ablations that decode through the engine at the given
// fan-out width, plus the equalizer-taps ablation on a low-SNR copy of the
// golden campaign, and flattens them into "section/row" → metric → exact
// value.
func evaluationGolden(t *testing.T, workers int) map[string]map[string]string {
	t.Helper()
	p := goldenParams()
	p.Workers = workers
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Evaluate(nil)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]map[string]string{}
	for _, r := range res {
		for name, c := range r.Counters {
			out[fmt.Sprintf("combo %d/%s", r.Combo.Number, name)] = counterGolden(c)
		}
	}
	ag, err := RunAging(e, goldenAges)
	if err != nil {
		t.Fatal(err)
	}
	for i, age := range goldenAges {
		out[fmt.Sprintf("aging/%d packets", age)] = map[string]string{
			"age_s":     exactFloat(ag.AgesSeconds[i]),
			"genie_mse": exactFloat(ag.GenieMSE[i]),
			"vvd_mse":   exactFloat(ag.VVDMSE[i]),
			"genie_per": exactFloat(ag.GeniePER[i]),
			"vvd_per":   exactFloat(ag.VVDPER[i]),
		}
	}
	pts, err := RunFig15(e, p.Campaign.PacketsPerSet)
	if err != nil {
		t.Fatal(err)
	}
	fig15 := strings.Split(RenderFig15(pts), "\n")
	out[fmt.Sprintf("fig15/%d packets", len(pts))] = map[string]string{"strip": fig15[1], "failed": fig15[2]}
	addAblations := func(prefix string, runs ...func() (*AblationResult, error)) {
		for _, run := range runs {
			ab, err := run()
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range ab.Rows {
				out[fmt.Sprintf("%sablation/%s/%s", prefix, ab.Title, r.Name)] = map[string]string{
					"mse": exactFloat(r.MSE),
					"per": exactFloat(r.PER),
					"cer": exactFloat(r.CER),
				}
			}
		}
	}
	addAblations("",
		func() (*AblationResult, error) { return RunAblationEqualizerTaps(e, []int{7, 21}) },
		func() (*AblationResult, error) { return RunAblationPhaseCorrection(e) },
		func() (*AblationResult, error) { return RunAblationCIRTaps(e, []int{3, 7, 11, 15}) },
		func() (*AblationResult, error) { return RunAblationDespreading(e) },
		func() (*AblationResult, error) { return RunAblationDense(e) },
	)
	// The golden campaign decodes every counted packet cleanly under the
	// perfect estimate; at low SNR the equalizer length shows.
	p.Campaign.Imp.SNRdB = goldenLowSNRdB
	low, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	addAblations(fmt.Sprintf("snr %d dB/", goldenLowSNRdB),
		func() (*AblationResult, error) { return RunAblationEqualizerTaps(low, []int{7, 21}) },
	)
	return out
}

// TestEvaluationGolden pins the decode comparison bit for bit: every
// technique's packet, packet-error, chip and chip-error counts and its MSE
// as an exact float64, over two combinations, plus the aging study
// (Figs. 16–17), the Fig. 15 strip and the equalizer-taps (also at low
// SNR), phase-correction, CIR-taps, despreading and dense-layer ablation
// rows. Estimation MSEs alone (the scenario conformance goldens) would not
// see a change in the equalizer, the matched filter or the despreader;
// these counters do. Every value must come out the same sequentially and
// fanned out. The values are those of an amd64 build (the compiler fuses
// no multiply-adds there). After an *intended* numeric change, regenerate
// with
//
//	go test ./internal/experiments -run TestEvaluationGolden -update-golden
func TestEvaluationGolden(t *testing.T) {
	path := filepath.Join("testdata", "evaluation.json")
	if *updateGolden {
		data, err := json.MarshalIndent(evaluationGolden(t, goldenParams().Workers), "", "  ")
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
		t.Fatalf("reading golden (run with -update-golden to create it): %v", err)
	}
	want := map[string]map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{goldenParams().Workers, 1} {
		got := evaluationGolden(t, workers)
		for row, gm := range got {
			wm, ok := want[row]
			if !ok {
				t.Errorf("workers %d: %s has no committed golden", workers, row)
				continue
			}
			for metric, gv := range gm {
				if wv := wm[metric]; gv != wv {
					t.Errorf("workers %d: %s %s drifted: got %s, golden %s", workers, row, metric, gv, wv)
				}
			}
		}
		for row := range want {
			if _, ok := got[row]; !ok {
				t.Errorf("workers %d: golden row %s was not produced", workers, row)
			}
		}
	}
}
