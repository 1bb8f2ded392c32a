package experiments

import (
	"strings"
	"sync"
	"testing"

	"vvd/internal/core"
	"vvd/internal/dataset"
	"vvd/internal/nn"
)

// tinyParams keeps engine tests fast: 3 sets, small packets, tiny CNN.
func tinyParams() Params {
	cfg := dataset.DefaultConfig()
	cfg.Sets = 3
	cfg.PacketsPerSet = 24
	cfg.PSDULen = 24
	return Params{
		Campaign: cfg,
		Combos:   1,
		Train: core.TrainConfig{
			Arch:   core.Arch{Conv1: 2, Conv2: 2, Conv3: 4, Conv4: 4, Dense: 16, Pool: nn.AvgPool},
			Epochs: 2, Batch: 8, Workers: 2, Seed: 3, LR: 1e-3,
		},
		SkipPackets: 6,
	}
}

var (
	engineOnce sync.Once
	engineVal  *Engine
	engineErr  error
)

// sharedEngine amortizes campaign generation across tests.
func sharedEngine(t *testing.T) *Engine {
	t.Helper()
	engineOnce.Do(func() {
		engineVal, engineErr = NewEngine(tinyParams())
	})
	if engineErr != nil {
		t.Fatal(engineErr)
	}
	return engineVal
}

// evaluateFirst runs the named techniques on the engine's first
// combination alone.
func evaluateFirst(t *testing.T, e *Engine, techniques []string) *ComboResult {
	t.Helper()
	res, err := e.evaluate(e.Combos()[:1], techniques)
	if err != nil {
		t.Fatal(err)
	}
	return res[0]
}

func TestEngineCombos(t *testing.T) {
	e := sharedEngine(t)
	combos := e.Combos()
	if len(combos) != 1 {
		t.Fatalf("combos = %d want 1", len(combos))
	}
	if combos[0].Test > 3 || combos[0].Val > 3 {
		t.Fatal("combo references missing sets")
	}
}

func TestEvaluateComboBasicTechniques(t *testing.T) {
	e := sharedEngine(t)
	cb := e.Combos()[0]
	techs := []string{
		core.TechStandard, core.TechGroundTruth, core.TechPreambleGenie,
		core.TechPrev100ms, core.TechPrev500ms, core.TechKalmanAR1,
	}
	res := evaluateFirst(t, e, techs)
	for _, name := range techs {
		c, ok := res.Counters[name]
		if !ok {
			t.Fatalf("technique %q missing from results", name)
		}
		if c.Packets == 0 {
			t.Fatalf("technique %q decoded no packets", name)
		}
		if per := c.PER(); per < 0 || per > 1 {
			t.Fatalf("technique %q PER %v out of range", name, per)
		}
	}
	// Skip window respected: packets counted = total − skip.
	want := len(e.Campaign.TestPackets(cb)) - e.P.SkipPackets
	if got := res.Counters[core.TechGroundTruth].Packets; got != want {
		t.Fatalf("counted %d packets want %d", got, want)
	}
	// Ground truth cannot be worse than standard decoding in CER.
	gt := res.Counters[core.TechGroundTruth].CER()
	std := res.Counters[core.TechStandard].CER()
	if gt > std+1e-9 && std > 0 {
		t.Fatalf("ground truth CER %v worse than standard %v", gt, std)
	}
	// MSE recorded for estimating techniques but not for ground truth.
	if res.Counters[core.TechGroundTruth].HasMSE() {
		t.Fatal("ground truth should not record MSE against itself")
	}
	if !res.Counters[core.TechPreambleGenie].HasMSE() {
		t.Fatal("genie should record MSE")
	}
}

func TestEvaluateComboVVDAndCombined(t *testing.T) {
	e := sharedEngine(t)
	techs := []string{core.TechVVDCurrent, core.TechCombinedVVD, core.TechCombinedKalman, core.TechPreamble}
	res := evaluateFirst(t, e, techs)
	for _, name := range techs {
		if res.Counters[name] == nil || res.Counters[name].Packets == 0 {
			t.Fatalf("technique %q produced no packets", name)
		}
	}
	// Combined can never lose more packets than pure preamble-based
	// (it decodes everything preamble-based decodes plus the fallbacks).
	comb := res.Counters[core.TechCombinedVVD].PER()
	pre := res.Counters[core.TechPreamble].PER()
	if comb > pre+1e-9 {
		t.Fatalf("combined PER %v worse than preamble-based %v", comb, pre)
	}
}

func TestVVDCacheReuse(t *testing.T) {
	e := sharedEngine(t)
	cb := e.Combos()[0]
	a, err := e.VVDFor(cb, dataset.LagCurrent)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.VVDFor(cb, dataset.LagCurrent)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("VVD not cached")
	}
}

func TestKalmanCacheResets(t *testing.T) {
	e := sharedEngine(t)
	cb := e.Combos()[0]
	k1, err := e.KalmanFor(cb, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := k1.Update(e.Campaign.Sets[0].Packets[0].PerfectAligned); err != nil {
		t.Fatal(err)
	}
	k2, err := e.KalmanFor(cb, 1)
	if err != nil {
		t.Fatal(err)
	}
	if k2.Seen() != 0 {
		t.Fatal("cached Kalman estimator not reset")
	}
}

func TestBoxOver(t *testing.T) {
	e := sharedEngine(t)
	res := evaluateFirst(t, e, []string{core.TechStandard, core.TechGroundTruth})
	box, err := BoxOver([]*ComboResult{res}, "per")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := box[core.TechStandard]; !ok {
		t.Fatal("BoxOver missing technique")
	}
	if _, err := BoxOver([]*ComboResult{res}, "nope"); err == nil {
		t.Fatal("unknown metric accepted")
	}
}

func TestTable1Content(t *testing.T) {
	out := Table1()
	for _, want := range []string{"Blind", "Pilot", "Time-Series", "VVD", "Reliable"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Content(t *testing.T) {
	e := sharedEngine(t)
	out := Table2(e.Campaign, 0)
	if !strings.Contains(out, "combination") || !strings.Contains(out, "val") {
		t.Fatalf("Table 2 malformed:\n%s", out)
	}
}

func TestFig5Hypotheses(t *testing.T) {
	res, err := RunFig5(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TapsAbs[0]) != 11 {
		t.Fatalf("taps = %d want 11", len(res.TapsAbs[0]))
	}
	// Hypothesis 2: same displacement at a later time is far more similar
	// to the control than a different displacement (hypothesis 1).
	if res.DistControlH2 >= res.DistControlH1 {
		t.Fatalf("hypothesis test failed: same-place dist %v ≥ moved dist %v",
			res.DistControlH2, res.DistControlH1)
	}
	render := res.Render()
	if !strings.Contains(render, "Control") || !strings.Contains(render, "hypothesis 2") {
		t.Fatalf("render malformed:\n%s", render)
	}
}

func TestFig5DominantTapCluster(t *testing.T) {
	// The dominant energy must land on taps 6–8 (1-based), matching the
	// paper's Fig. 5a structure.
	res, err := RunFig5(7)
	if err != nil {
		t.Fatal(err)
	}
	best, idx := 0.0, 0
	for i, v := range res.TapsAbs[0] {
		if v > best {
			best, idx = v, i
		}
	}
	if idx < 5 || idx > 7 {
		t.Fatalf("dominant tap %d (0-based) outside 5..7", idx)
	}
}

func TestRunAgingMonotoneGenie(t *testing.T) {
	e := sharedEngine(t)
	res, err := RunAging(e, []int{0, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AgesSeconds) != 2 {
		t.Fatalf("ages = %v", res.AgesSeconds)
	}
	// An aged genie estimate cannot beat the fresh one in MSE.
	if res.GenieMSE[1] < res.GenieMSE[0] {
		t.Fatalf("aged genie MSE %v below fresh %v", res.GenieMSE[1], res.GenieMSE[0])
	}
	if !strings.Contains(res.Render(), "age (s)") {
		t.Fatal("aging render malformed")
	}
}

func TestRunAgingTooOld(t *testing.T) {
	e := sharedEngine(t)
	if _, err := RunAging(e, []int{0, 99999}); err == nil {
		t.Fatal("excessive age accepted")
	}
}

func TestRunFig15Timeline(t *testing.T) {
	// Dedicated scripted campaign to guarantee LoS crossings.
	p := tinyParams()
	p.Campaign.Scripted = true
	p.Campaign.PacketsPerSet = 40
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := RunFig15(e, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 30 {
		t.Fatalf("points = %d", len(pts))
	}
	blocked := 0
	for _, pt := range pts {
		if pt.Blocked {
			blocked++
		}
	}
	if blocked == 0 {
		t.Fatal("scripted path never blocked the LoS")
	}
	if !strings.Contains(RenderFig15(pts), "packets failed") {
		t.Fatal("Fig. 15 render malformed")
	}
}

func TestEvaluateRunsAllCombos(t *testing.T) {
	e := sharedEngine(t)
	results, err := e.Evaluate([]string{core.TechStandard})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(e.Combos()) {
		t.Fatalf("results = %d combos = %d", len(results), len(e.Combos()))
	}
}
