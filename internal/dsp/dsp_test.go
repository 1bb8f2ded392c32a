package dsp

import (
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

const tol = 1e-9

func TestConvolveKnown(t *testing.T) {
	x := []complex128{1, 2, 3}
	h := []complex128{1, 1}
	got := Convolve(x, h)
	want := []complex128{1, 3, 5, 3}
	if len(got) != len(want) {
		t.Fatalf("len = %d want %d", len(got), len(want))
	}
	for i := range want {
		if cmplx.Abs(got[i]-want[i]) > tol {
			t.Fatalf("out[%d] = %v want %v", i, got[i], want[i])
		}
	}
}

func TestConvolveEmpty(t *testing.T) {
	if Convolve(nil, []complex128{1}) != nil {
		t.Fatal("expected nil for empty x")
	}
	if Convolve([]complex128{1}, nil) != nil {
		t.Fatal("expected nil for empty h")
	}
}

func TestConvolveIdentity(t *testing.T) {
	x := []complex128{1 + 1i, 2, -3i}
	got := Convolve(x, []complex128{1})
	for i := range x {
		if got[i] != x[i] { //vvdlint:bitexact -- identity/round-trip transform is exact by construction
			t.Fatal("convolution with unit impulse must be identity")
		}
	}
}

func TestConvolveCommutativeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed+9))
		x := randSlice(rng, 1+int(seed%8))
		h := randSlice(rng, 1+int((seed/8)%6))
		a, b := Convolve(x, h), Convolve(h, x)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if cmplx.Abs(a[i]-b[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConvolveLinearityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed*3+1))
		x := randSlice(rng, 5)
		y := randSlice(rng, 5)
		h := randSlice(rng, 3)
		sum := make([]complex128, 5)
		for i := range sum {
			sum[i] = x[i] + y[i]
		}
		lhs := Convolve(sum, h)
		cx, cy := Convolve(x, h), Convolve(y, h)
		for i := range lhs {
			if cmplx.Abs(lhs[i]-(cx[i]+cy[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCrossCorrelatePeakAtAlignment(t *testing.T) {
	ref := []complex128{1, -1, 1, 1}
	x := make([]complex128, 16)
	copy(x[5:], ref)
	c := CrossCorrelate(x, ref)
	best, bestLag := 0.0, -1
	for lag, v := range c {
		if a := cmplx.Abs(v); a > best {
			best, bestLag = a, lag
		}
	}
	if bestLag != 5 {
		t.Fatalf("peak at lag %d want 5", bestLag)
	}
	if math.Abs(best-4) > tol {
		t.Fatalf("peak magnitude %v want 4", best)
	}
}

func TestCrossCorrelateRefLongerThanX(t *testing.T) {
	if CrossCorrelate([]complex128{1}, []complex128{1, 2}) != nil {
		t.Fatal("expected nil when ref longer than x")
	}
}

func TestCrossCorrelatePhase(t *testing.T) {
	// A rotated copy of ref correlates with the rotation's phase.
	ref := []complex128{1, 1, 1, 1}
	theta := 0.7
	x := Rotate(ref, theta)
	c := CrossCorrelate(x, ref)
	if math.Abs(cmplx.Phase(c[0])-theta) > 1e-9 {
		t.Fatalf("phase = %v want %v", cmplx.Phase(c[0]), theta)
	}
}

func TestPower(t *testing.T) {
	if p := Power([]complex128{3, 4i}); math.Abs(p-12.5) > tol {
		t.Fatalf("Power = %v want 12.5", p)
	}
	if Power(nil) != 0 {
		t.Fatal("Power(nil) must be 0")
	}
}

func TestAddAWGNSNRLevel(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	x := make([]complex128, 200000)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, float64(i)))
	}
	for _, snr := range []float64{0, 10, 20} {
		noisy := AddAWGN(x, snr, rng)
		got := SNRdB(x, noisy)
		if math.Abs(got-snr) > 0.2 {
			t.Fatalf("requested %v dB, measured %v dB", snr, got)
		}
	}
}

func TestAddAWGNDoesNotMutate(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	x := []complex128{1, 2, 3}
	_ = AddAWGN(x, 0, rng)
	if x[0] != 1 || x[1] != 2 || x[2] != 3 {
		t.Fatal("input mutated")
	}
}

func TestSNRdBPerfect(t *testing.T) {
	x := []complex128{1, 2}
	if !math.IsInf(SNRdB(x, x), 1) {
		t.Fatal("identical signals must give +Inf SNR")
	}
}

func TestFractionalDelayKernelIntegerDelay(t *testing.T) {
	// Integer delay d puts a unit sample at center+d and ~0 elsewhere.
	k := make([]float64, 11)
	FractionalDelayKernelInto(k, 5, 2)
	for i, v := range k {
		want := 0.0
		if i == 7 {
			want = 1.0
		}
		if math.Abs(v-want) > 1e-9 {
			t.Fatalf("k[%d] = %v want %v", i, v, want)
		}
	}
}

func TestFractionalDelayKernelSpreadsEnergy(t *testing.T) {
	k := make([]float64, 11)
	FractionalDelayKernelInto(k, 5, 0.5)
	// Half-sample delay: the two neighbouring taps dominate equally.
	if math.Abs(k[5]-k[6]) > 1e-9 {
		t.Fatalf("taps around 0.5 delay not symmetric: %v vs %v", k[5], k[6])
	}
	if k[5] < 0.5 {
		t.Fatalf("dominant taps too small: %v", k[5])
	}
	// Pre-cursor (index < 5+0) energy exists but is small.
	if math.Abs(k[4]) < 1e-6 {
		t.Fatal("expected non-zero pre-cursor leakage")
	}
	if math.Abs(k[4]) > math.Abs(k[5]) {
		t.Fatal("pre-cursor must be below dominant tap")
	}
}

func TestFractionalDelayKernelZeroLength(t *testing.T) {
	FractionalDelayKernelInto(nil, 0, 1) // a zero-tap kernel writes nothing
}

func TestHalfSinePulse(t *testing.T) {
	p := HalfSinePulse(4)
	if len(p) != 4 {
		t.Fatalf("len = %d", len(p))
	}
	if p[0] != 0 {
		t.Fatalf("p[0] = %v want 0", p[0])
	}
	if math.Abs(p[2]-1) > tol {
		t.Fatalf("p[2] = %v want 1 (peak at mid-chip)", p[2])
	}
	if math.Abs(p[1]-p[3]) > tol {
		t.Fatal("half-sine must be symmetric about its peak")
	}
}

func TestHalfSinePulsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	HalfSinePulse(0)
}

func TestRotatePreservesMagnitudeProperty(t *testing.T) {
	f := func(seed uint64, theta float64) bool {
		if math.IsNaN(theta) || math.IsInf(theta, 0) {
			return true
		}
		rng := rand.New(rand.NewPCG(seed, 11))
		x := randSlice(rng, 8)
		y := Rotate(x, theta)
		for i := range x {
			if math.Abs(cmplx.Abs(y[i])-cmplx.Abs(x[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyCFOThenInverseIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	x := randSlice(rng, 64)
	fwd := ApplyCFO(x, 1500, 8e6)
	back := ApplyCFO(fwd, -1500, 8e6)
	for i := range x {
		if cmplx.Abs(back[i]-x[i]) > 1e-9 {
			t.Fatal("CFO inverse failed")
		}
	}
}

func TestApplyCFOZeroIsIdentity(t *testing.T) {
	x := []complex128{1, 2i}
	y := ApplyCFO(x, 0, 8e6)
	for i := range x {
		if y[i] != x[i] { //vvdlint:bitexact -- identity/round-trip transform is exact by construction
			t.Fatal("zero CFO must be identity")
		}
	}
}

func randSlice(rng *rand.Rand, n int) []complex128 {
	s := make([]complex128, n)
	for i := range s {
		s[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return s
}
