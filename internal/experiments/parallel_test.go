package experiments

import (
	"reflect"
	"slices"
	"testing"

	"vvd/internal/core"
	"vvd/internal/dataset"
)

// TestRegistryCoversAllTechniques pins the builders table to exactly the
// paper's 14 techniques.
func TestRegistryCoversAllTechniques(t *testing.T) {
	if len(core.AllTechniques) != 14 {
		t.Fatalf("paper defines 14 techniques, core lists %d", len(core.AllTechniques))
	}
	if len(builders) != len(core.AllTechniques) {
		t.Fatalf("builders table has %d entries, want %d", len(builders), len(core.AllTechniques))
	}
	for _, name := range core.AllTechniques {
		if builders[name] == nil {
			t.Fatalf("technique %q has no builder", name)
		}
	}
}

// TestLookupUnknownTechnique checks that a typo fails before any model is
// trained, even when listed after a technique that needs training.
func TestLookupUnknownTechnique(t *testing.T) {
	e := NewEngineFromCampaign(sharedEngine(t).Campaign, tinyParams())
	if _, err := e.Evaluate([]string{core.TechVVDCurrent, core.TechKalmanAR5, "Carrier Pigeon"}); err == nil {
		t.Fatal("unknown technique resolved")
	}
	if len(e.vvdCache) != 0 || len(e.kalmanCache) != 0 {
		t.Fatalf("models trained before the name check: %d VVD, %d Kalman", len(e.vvdCache), len(e.kalmanCache))
	}
}

// assertSameResults compares two evaluation outputs field-exactly — the
// parallel engine must be byte-identical to the sequential one.
func assertSameResults(t *testing.T, want, got []*ComboResult) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("result count %d != %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Combo.Number != got[i].Combo.Number {
			t.Fatalf("combo order differs at %d: %d vs %d", i, got[i].Combo.Number, want[i].Combo.Number)
		}
		if len(want[i].Counters) != len(got[i].Counters) {
			t.Fatalf("combo %d technique count %d != %d", i, len(got[i].Counters), len(want[i].Counters))
		}
		for name, w := range want[i].Counters {
			g, ok := got[i].Counters[name]
			if !ok {
				t.Fatalf("combo %d missing technique %q", i, name)
			}
			if g.Packets != w.Packets || g.PacketErrs != w.PacketErrs ||
				g.Chips != w.Chips || g.ChipErrs != w.ChipErrs {
				t.Fatalf("combo %d technique %q counters differ: %+v vs %+v", i, name, g, w)
			}
			if g.HasMSE() != w.HasMSE() || g.MSE() != w.MSE() { //vvdlint:bitexact -- parallel evaluation is byte-identical to sequential
				t.Fatalf("combo %d technique %q MSE differs: %v vs %v", i, name, g.MSE(), w.MSE())
			}
		}
		if !reflect.DeepEqual(want[i].ok, got[i].ok) {
			t.Fatalf("combo %d per-packet decode records differ", i)
		}
	}
}

// TestDecodeRecordMatchesCounters pins the per-packet decode record to the
// counters: every technique has one entry per test packet, none inside
// the skip window is OK, and the OK entries number the counted packets
// that decoded.
func TestDecodeRecordMatchesCounters(t *testing.T) {
	e := sharedEngine(t)
	res, err := e.Evaluate(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if len(r.ok) != len(core.AllTechniques) {
			t.Fatalf("combo %d: %d records for %d techniques", r.Combo.Number, len(r.ok), len(core.AllTechniques))
		}
		for name, ok := range r.ok {
			if len(ok) != len(e.Campaign.TestPackets(r.Combo)) {
				t.Fatalf("combo %d %s: %d records", r.Combo.Number, name, len(ok))
			}
			if slices.Contains(ok[:e.P.SkipPackets], true) {
				t.Fatalf("combo %d %s: a skipped packet is recorded OK", r.Combo.Number, name)
			}
			want := 0
			if c := r.Counters[name]; c != nil {
				want = c.Packets - c.PacketErrs
			}
			got := 0
			for _, v := range ok {
				if v {
					got++
				}
			}
			if got != want {
				t.Fatalf("combo %d %s: %d packets recorded OK, counters say %d", r.Combo.Number, name, got, want)
			}
		}
	}
}

// TestEvaluateParallelMatchesSequential is the determinism contract of the
// packet-major engine: at one and at two combinations, Workers 3 and 8
// must produce the Workers=1 ComboResults over all 14 techniques, and a
// combination's result must not depend on which others run beside it.
// Run under -race this also exercises the singleflight model caches, the
// shared per-packet receptions and the concurrent combination loops.
func TestEvaluateParallelMatchesSequential(t *testing.T) {
	e := sharedEngine(t)
	origWorkers, origCombos := e.P.Workers, e.P.Combos
	defer func() { e.P.Workers, e.P.Combos = origWorkers, origCombos }()

	var seqOne []*ComboResult
	for _, combos := range []int{1, 2} {
		e.P.Combos = combos
		var seq []*ComboResult
		for _, workers := range []int{1, 3, 8} {
			e.P.Workers = workers
			res, err := e.Evaluate(nil) // nil = all 14 techniques
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != combos {
				t.Fatalf("Combos=%d Workers=%d: %d results", combos, workers, len(res))
			}
			if seq == nil {
				seq = res
				continue
			}
			assertSameResults(t, seq, res)
		}
		if seqOne == nil {
			seqOne = seq
		} else {
			assertSameResults(t, seqOne, seq[:1])
		}
	}
}

// TestEvaluateOneComboMatchesParallel pins a one-combination sequential
// evaluation to the first combination of the fan-out path.
func TestEvaluateOneComboMatchesParallel(t *testing.T) {
	e := sharedEngine(t)
	techs := []string{core.TechStandard, core.TechKalmanAR5, core.TechCombinedKalman, core.TechVVDCurrent}
	origWorkers := e.P.Workers
	defer func() { e.P.Workers = origWorkers }()
	e.P.Workers = 1
	single := evaluateFirst(t, e, techs)
	e.P.Workers = 4
	fan, err := e.Evaluate(techs)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, []*ComboResult{single}, fan[:1])
}

func TestEvaluateUnknownTechniqueFails(t *testing.T) {
	e := sharedEngine(t)
	if _, err := e.Evaluate([]string{"Carrier Pigeon"}); err == nil {
		t.Fatal("unknown technique accepted by Evaluate")
	}
	if _, err := e.Evaluate([]string{core.TechStandard, "Carrier Pigeon"}); err == nil {
		t.Fatal("unknown technique accepted beside a known one")
	}
}

// standardEstimator builds the table's Standard Decoding estimator.
func standardEstimator(t *testing.T, e *Engine) Estimator {
	t.Helper()
	est, err := builders[core.TechStandard](e, e.Combos()[0])
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// TestRegisterCustomTechnique scores an estimator outside the technique
// table by handing it to the lane loop, beside a built-in one.
func TestRegisterCustomTechnique(t *testing.T) {
	const name = "True CIR Oracle (test)"
	oracle := staticEstimator{name: name, est: func(pkt *dataset.Packet) ([]complex128, Availability) {
		return pkt.TrueCIR, Available
	}}
	e := sharedEngine(t)
	res, err := e.score(e.Combos()[0], e.P.SkipPackets, oracle, standardEstimator(t, e))
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters[name]
	if c == nil || c.Packets == 0 {
		t.Fatal("custom technique produced no packets")
	}
	if !c.HasMSE() {
		t.Fatal("custom technique should score MSE")
	}
}

// TestSkipOnlyTechniqueOmitted pins the original engine's reporting rule:
// a technique that never produced a countable packet is left out of the
// result instead of surfacing as a zero-error counter in BoxOver.
func TestSkipOnlyTechniqueOmitted(t *testing.T) {
	const name = "Always Skip (test)"
	skip := staticEstimator{name: name, est: func(pkt *dataset.Packet) ([]complex128, Availability) {
		return nil, Skip
	}}
	e := sharedEngine(t)
	res, err := e.score(e.Combos()[0], e.P.SkipPackets, skip, standardEstimator(t, e))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Counters[name]; ok {
		t.Fatal("skip-only technique reported a counter")
	}
	if _, ok := res.Counters[core.TechStandard]; !ok {
		t.Fatal("standard decoding missing")
	}
}

// TestKalmanForReturnsClones is the aliasing-bug regression test: two
// callers must never share filter state.
func TestKalmanForReturnsClones(t *testing.T) {
	e := sharedEngine(t)
	cb := e.Combos()[0]
	k1, err := e.KalmanFor(cb, 5)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := e.KalmanFor(cb, 5)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Fatal("KalmanFor handed out a shared instance")
	}
	// Advancing one clone must not leak into a later clone: interleaved
	// figures each see a pristine filter.
	for k := 0; k < 4; k++ {
		if err := k1.Update(e.Campaign.TestPackets(cb)[k].PerfectAligned); err != nil {
			t.Fatal(err)
		}
	}
	k3, err := e.KalmanFor(cb, 5)
	if err != nil {
		t.Fatal(err)
	}
	if k3.Seen() != 0 {
		t.Fatalf("fresh clone has seen %d updates (cache corrupted)", k3.Seen())
	}
}
