package estimate

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"vvd/internal/channel"
)

// hoistedConjEstimate is LSSolver.Estimate as it ran when the solver kept
// a conjugated copy of its reference: conjugate the whole reference once,
// then accumulate every lag in one pass. It is the reference the solver's
// on-the-fly conjugation must reproduce bit for bit.
func hoistedConjEstimate(s *LSSolver, known, rx []complex128) ([]complex128, error) {
	kc := make([]complex128, len(known))
	for i, kv := range known {
		kc[i] = complex(real(kv), -imag(kv))
	}
	xhy := make([]complex128, s.taps)
	for m, c := range kc {
		w := rx[m : m+s.taps]
		for d, wv := range w {
			xhy[d] += c * wv
		}
	}
	return s.lu.Solve(xhy)
}

func sameBits(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// TestLSSolverMatchesHoistedConjugate checks that taking the reference per
// call and conjugating it on the fly changes no bit of the estimate: on a
// received packet against its full transmit waveform (the ground-truth
// case) and against the SHR (the preamble case), and on random references,
// at several tap counts.
func TestLSSolverMatchesHoistedConjugate(t *testing.T) {
	f := makeFixture(t, channel.Impairments{SNRdB: 15, PhaseStdDev: 0.5, CFOStdDevHz: 200}, blockedHuman(), 21)
	r := NewReceiver(DefaultConfig())
	rxc, _ := r.CorrectCFO(f.rec.Waveform)
	rng := rand.New(rand.NewPCG(8, 9))
	cases := []struct {
		name      string
		known, rx []complex128
	}{
		{"ground truth", f.txWave, rxc},
		{"preamble", r.shrKnown, rxc},
		{"random", randSignal(rng, 333), randSignal(rng, 400)},
	}
	for _, c := range cases {
		for _, taps := range []int{1, 5, r.Cfg.CIRTaps} {
			s, err := NewLSSolver(c.known, taps)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Estimate(c.known, c.rx)
			if err != nil {
				t.Fatal(err)
			}
			want, err := hoistedConjEstimate(s, c.known, c.rx)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got, want) {
				t.Fatalf("%s, %d taps: estimate differs from the hoisted-conjugate loop", c.name, taps)
			}
		}
	}
	pre, err := r.EstimatePreamble(rxc)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewLSSolver(r.shrKnown, r.Cfg.CIRTaps)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hoistedConjEstimate(s, r.shrKnown, rxc)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(pre, want) {
		t.Fatal("EstimatePreamble differs from the hoisted-conjugate loop over the SHR")
	}
	gt, err := r.GroundTruthSolver(f.txWave)
	if err != nil {
		t.Fatal(err)
	}
	got, err := gt.Estimate(rxc)
	if err != nil {
		t.Fatal(err)
	}
	s, err = NewLSSolver(f.txWave, r.Cfg.CIRTaps)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ = hoistedConjEstimate(s, f.txWave, rxc); !sameBits(got, want) {
		t.Fatal("GroundTruthSolver differs from the hoisted-conjugate loop over the waveform")
	}
}

// TestLSSolverRejectsWrongReference checks that Estimate refuses a
// reference of another length than the one the solver was built from,
// and still reports a short observation as ErrShortObservation.
func TestLSSolverRejectsWrongReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 11))
	known := randSignal(rng, 50)
	rx := randSignal(rng, 60)
	s, err := NewLSSolver(known, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range [][]complex128{nil, known[:49], append(known[:50:50], 1)} {
		_, err := s.Estimate(ref, rx)
		if err == nil {
			t.Fatalf("a %d-sample reference was accepted by a solver built for 50", len(ref))
		}
		if errors.Is(err, ErrShortObservation) {
			t.Fatalf("a %d-sample reference was reported as a short observation: %v", len(ref), err)
		}
	}
	if _, err := s.Estimate(known, rx[:52]); !errors.Is(err, ErrShortObservation) {
		t.Fatalf("52 received samples for 50+4−1: got %v, want ErrShortObservation", err)
	}
}
