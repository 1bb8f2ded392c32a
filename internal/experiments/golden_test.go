package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
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

// evaluationGolden runs the golden evaluation, the aging study and the
// ablations that decode through the engine and flattens them into
// "section/row" → metric → exact value.
func evaluationGolden(t *testing.T) map[string]map[string]string {
	t.Helper()
	e, err := NewEngine(goldenParams())
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
	ablations := []func() (*AblationResult, error){
		func() (*AblationResult, error) { return RunAblationEqualizerTaps(e, []int{7, 21}) },
		func() (*AblationResult, error) { return RunAblationPhaseCorrection(e) },
		func() (*AblationResult, error) { return RunAblationDespreading(e) },
		func() (*AblationResult, error) { return RunAblationDense(e) },
	}
	for _, run := range ablations {
		ab, err := run()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range ab.Rows {
			out[fmt.Sprintf("ablation/%s/%s", ab.Title, r.Name)] = map[string]string{
				"mse": exactFloat(r.MSE),
				"per": exactFloat(r.PER),
				"cer": exactFloat(r.CER),
			}
		}
	}
	return out
}

// TestEvaluationGolden pins the decode comparison bit for bit: every
// technique's packet, packet-error, chip and chip-error counts and its MSE
// as an exact float64, over two combinations, plus the aging study
// (Figs. 16–17) and the equalizer-taps, phase-correction, despreading and
// dense-layer ablation rows. Estimation MSEs alone (the scenario conformance goldens)
// would not see a change in the equalizer, the matched filter or the
// despreader; these counters do. The values are those of an amd64 build
// (the compiler fuses no multiply-adds there). After an *intended*
// numeric change, regenerate with
//
//	go test ./internal/experiments -run TestEvaluationGolden -update-golden
func TestEvaluationGolden(t *testing.T) {
	path := filepath.Join("testdata", "evaluation.json")
	got := evaluationGolden(t)
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
		t.Fatalf("reading golden (run with -update-golden to create it): %v", err)
	}
	want := map[string]map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for row, gm := range got {
		wm, ok := want[row]
		if !ok {
			t.Errorf("%s has no committed golden", row)
			continue
		}
		for metric, gv := range gm {
			if wv := wm[metric]; gv != wv {
				t.Errorf("%s %s drifted: got %s, golden %s", row, metric, gv, wv)
			}
		}
	}
	for row := range want {
		if _, ok := got[row]; !ok {
			t.Errorf("golden row %s was not produced", row)
		}
	}
}
