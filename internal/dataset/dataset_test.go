package dataset

import (
	"math/cmplx"
	"testing"

	"vvd/internal/estimate"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Sets = 3
	cfg.PacketsPerSet = 8
	cfg.PSDULen = 24
	cfg.RenderImages = true
	return cfg
}

func genSmall(t *testing.T) *Campaign {
	t.Helper()
	c, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGenerateShape(t *testing.T) {
	c := genSmall(t)
	if len(c.Sets) != 3 {
		t.Fatalf("sets = %d", len(c.Sets))
	}
	for si, s := range c.Sets {
		if s.Index != si+1 {
			t.Fatalf("set %d has index %d", si, s.Index)
		}
		if len(s.Packets) != 8 {
			t.Fatalf("set %d has %d packets", si, len(s.Packets))
		}
		for ki, p := range s.Packets {
			if len(p.TrueCIR) != c.Model.Taps || len(p.Perfect) != c.Model.Taps {
				t.Fatalf("packet %d/%d estimate lengths wrong", si, ki)
			}
			if len(p.Images[LagCurrent]) != ImagePixels {
				t.Fatalf("packet %d/%d image size %d", si, ki, len(p.Images[LagCurrent]))
			}
			if !c.Room.MovementArea.Contains(p.Pos.X, p.Pos.Y) {
				t.Fatalf("packet %d/%d position outside movement area", si, ki)
			}
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	bad := smallConfig()
	bad.Sets = 0
	if _, err := Generate(bad); err == nil {
		t.Fatal("zero sets accepted")
	}
	bad = smallConfig()
	bad.PSDULen = 2
	if _, err := Generate(bad); err == nil {
		t.Fatal("tiny PSDU accepted")
	}
	bad = smallConfig()
	bad.PSDULen = 500
	if _, err := Generate(bad); err == nil {
		t.Fatal("oversize PSDU accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Sets[1].Packets[3], b.Sets[1].Packets[3]
	if pa.Pos != pb.Pos {
		t.Fatal("positions differ across identical generations")
	}
	for i := range pa.Perfect {
		if pa.Perfect[i] != pb.Perfect[i] { //vvdlint:bitexact -- store round-trip and regeneration are bit-identical by format contract
			t.Fatal("estimates differ across identical generations")
		}
	}
}

func TestSetsDiffer(t *testing.T) {
	c := genSmall(t)
	if c.Sets[0].Packets[5].Pos == c.Sets[1].Packets[5].Pos {
		t.Fatal("independent sets share trajectories")
	}
}

func TestReceptionReproducible(t *testing.T) {
	c := genSmall(t)
	_, _, _, rec1, err := c.Reception(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, rec2, err := c.Reception(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec1.Waveform) != len(rec2.Waveform) {
		t.Fatal("regenerated lengths differ")
	}
	for i := range rec1.Waveform {
		if rec1.Waveform[i] != rec2.Waveform[i] { //vvdlint:bitexact -- store round-trip and regeneration are bit-identical by format contract
			t.Fatal("regenerated waveform differs")
		}
	}
	// The regenerated CIR must equal the stored one.
	pkt := c.Sets[1].Packets[4]
	for i := range pkt.TrueCIR {
		if rec1.TrueCIR[i] != pkt.TrueCIR[i] { //vvdlint:bitexact -- store round-trip and regeneration are bit-identical by format contract
			t.Fatal("regenerated CIR differs from stored")
		}
	}
}

func TestReceptionMatchesStoredEstimate(t *testing.T) {
	// Recomputing the ground-truth estimate from the regenerated waveform
	// must reproduce the stored Perfect estimate.
	c := genSmall(t)
	_, txWave, _, rec, err := c.Reception(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	rxc, _ := c.Receiver.CorrectCFO(rec.Waveform)
	perfect, err := c.Receiver.EstimateGroundTruth(rxc, txWave)
	if err != nil {
		t.Fatal(err)
	}
	stored := c.Sets[0].Packets[2].Perfect
	for i := range stored {
		if cmplx.Abs(perfect[i]-stored[i]) > 1e-12 {
			t.Fatal("recomputed estimate differs from stored")
		}
	}
}

func TestReceptionOutOfRange(t *testing.T) {
	c := genSmall(t)
	if _, _, _, _, err := c.Reception(9, 0); err == nil {
		t.Fatal("bad set accepted")
	}
	if _, _, _, _, err := c.Reception(1, 99); err == nil {
		t.Fatal("bad packet accepted")
	}
}

func TestPerfectAlignedPhase(t *testing.T) {
	// After alignment, the mean phase shift to the reference must be ~0.
	c := genSmall(t)
	for _, p := range c.Sets[0].Packets {
		theta := estimate.MeanPhaseShift(p.PerfectAligned, c.RefCIR)
		if theta > 1e-6 || theta < -1e-6 {
			t.Fatalf("aligned estimate has residual phase %v", theta)
		}
	}
}

func TestImagesVaryWithLag(t *testing.T) {
	c := genSmall(t)
	// At least some packets should show the human moving between the
	// 100 ms-earlier frame and the current frame.
	moved := 0
	for _, s := range c.Sets {
		for _, p := range s.Packets {
			for i := range p.Images[LagCurrent] {
				if p.Images[LagCurrent][i] != p.Images[Lag100ms][i] { //vvdlint:bitexact -- store round-trip and regeneration are bit-identical by format contract
					moved++
					break
				}
			}
		}
	}
	if moved == 0 {
		t.Fatal("no packet shows motion between lagged frames")
	}
}

func TestRenderImagesOff(t *testing.T) {
	cfg := smallConfig()
	cfg.RenderImages = false
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Sets[0].Packets[0].Images[LagCurrent] != nil {
		t.Fatal("images rendered despite RenderImages=false")
	}
}

func TestTable2Combinations(t *testing.T) {
	if len(Combinations) != 15 {
		t.Fatalf("combinations = %d want 15", len(Combinations))
	}
	testSeen := map[int]bool{}
	for _, cb := range Combinations {
		if len(cb.Training) != 13 {
			t.Fatalf("combination %d has %d training sets, want 13", cb.Number, len(cb.Training))
		}
		if testSeen[cb.Test] {
			t.Fatalf("test set %d reused", cb.Test)
		}
		testSeen[cb.Test] = true
		seen := map[int]bool{cb.Val: true, cb.Test: true}
		for _, s := range cb.Training {
			if seen[s] {
				t.Fatalf("combination %d: set %d appears twice", cb.Number, s)
			}
			seen[s] = true
		}
		// Combination 13 is the paper's quirk: val=13, test=12, and set 13
		// also appears nowhere else; all others must cover all 15 sets.
		if cb.Number != 13 && len(seen) != 15 {
			t.Fatalf("combination %d covers %d sets", cb.Number, len(seen))
		}
	}
	// Every set 1..15 serves as a test set exactly once.
	for s := 1; s <= 15; s++ {
		if !testSeen[s] {
			t.Fatalf("set %d never used as test", s)
		}
	}
}

func TestCombinationsForScaling(t *testing.T) {
	combos := CombinationsFor(3, 0)
	if len(combos) != 3 {
		t.Fatalf("3-set campaign should synthesize 3 combinations, got %d", len(combos))
	}
	testSeen := map[int]bool{}
	for _, cb := range combos {
		if cb.Val > 3 || cb.Test > 3 || cb.Val == cb.Test {
			t.Fatalf("combination %d references missing or overlapping sets", cb.Number)
		}
		if len(cb.Training) != 1 {
			t.Fatalf("combination %d has %d training sets, want 1", cb.Number, len(cb.Training))
		}
		if cb.Training[0] == cb.Val || cb.Training[0] == cb.Test {
			t.Fatalf("combination %d training overlaps val/test", cb.Number)
		}
		testSeen[cb.Test] = true
	}
	if len(testSeen) != 3 {
		t.Fatal("synthesized combinations must rotate the test set")
	}
	if CombinationsFor(2, 0) != nil {
		t.Fatal("2-set campaign cannot form a combination")
	}
	if len(CombinationsFor(15, 4)) != 4 {
		t.Fatal("max limit not applied")
	}
	if len(CombinationsFor(15, 0)) != 15 {
		t.Fatal("full campaign should keep all 15 combinations")
	}
	if len(CombinationsFor(20, 0)) != 15 {
		t.Fatal("oversized campaign should still use Table 2")
	}
}

func TestCombinationValidate(t *testing.T) {
	c := genSmall(t)
	good := Combination{Number: 99, Training: []int{1}, Val: 2, Test: 3}
	if err := good.Validate(c); err != nil {
		t.Fatal(err)
	}
	bad := Combination{Number: 99, Training: []int{1}, Val: 2, Test: 9}
	if err := bad.Validate(c); err == nil {
		t.Fatal("missing test set accepted")
	}
	bad = Combination{Number: 99, Training: []int{2}, Val: 2, Test: 3}
	if err := bad.Validate(c); err == nil {
		t.Fatal("overlapping partitions accepted")
	}
	bad = Combination{Number: 99, Training: []int{1}, Val: 3, Test: 3}
	if err := bad.Validate(c); err == nil {
		t.Fatal("val == test accepted")
	}
}

func TestPartitionAccessors(t *testing.T) {
	c := genSmall(t)
	cb := Combination{Number: 1, Training: []int{1, 2}, Val: 3, Test: 2}
	if got := len(c.TrainingPackets(cb)); got != 16 {
		t.Fatalf("training packets = %d want 16", got)
	}
	if got := len(c.ValPackets(cb)); got != 8 {
		t.Fatalf("val packets = %d want 8", got)
	}
	if got := len(c.TestPackets(cb)); got != 8 {
		t.Fatalf("test packets = %d want 8", got)
	}
}

func TestSetAccessor(t *testing.T) {
	c := genSmall(t)
	s, err := c.Set(2)
	if err != nil || s.Index != 2 {
		t.Fatalf("Set(2) = %v, %v", s, err)
	}
	if _, err := c.Set(0); err == nil {
		t.Fatal("Set(0) accepted")
	}
	if _, err := c.Set(4); err == nil {
		t.Fatal("Set(4) accepted")
	}
}

func TestPreambleDetectionMostlySucceeds(t *testing.T) {
	c := genSmall(t)
	detected, total := 0, 0
	for _, s := range c.Sets {
		for _, p := range s.Packets {
			if p.PreambleDetected {
				detected++
			}
			total++
		}
	}
	if detected < total/2 {
		t.Fatalf("only %d/%d preambles detected — threshold miscalibrated", detected, total)
	}
}
