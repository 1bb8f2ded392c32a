package estimate

import (
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"vvd/internal/dsp"
	"vvd/internal/phy"
)

func randSignal(rng *rand.Rand, n int) []complex128 {
	s := make([]complex128, n)
	for i := range s {
		s[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return s
}

func TestLSRecoversKnownChannel(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	known := randSignal(rng, 400)
	h := []complex128{0.1i, 0.8 - 0.3i, 0.2, -0.05i}
	rx := dsp.Convolve(known, h)
	got, err := LS(known, rx, len(h))
	if err != nil {
		t.Fatal(err)
	}
	for i := range h {
		if cmplx.Abs(got[i]-h[i]) > 1e-6 {
			t.Fatalf("tap %d = %v want %v", i, got[i], h[i])
		}
	}
}

func TestLSWithNoiseApproximate(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	known := randSignal(rng, 2000)
	h := []complex128{0.5, 0.3i, -0.2}
	rx := dsp.AddAWGN(dsp.Convolve(known, h), 20, rng)
	got, err := LS(known, rx, len(h))
	if err != nil {
		t.Fatal(err)
	}
	for i := range h {
		if cmplx.Abs(got[i]-h[i]) > 0.05 {
			t.Fatalf("tap %d = %v want ≈ %v", i, got[i], h[i])
		}
	}
}

func TestLSAbsorbsCommonPhase(t *testing.T) {
	// A constant phase rotation of rx appears as the same rotation of ĥ.
	rng := rand.New(rand.NewPCG(5, 6))
	known := randSignal(rng, 300)
	h := []complex128{0.9, 0.2i}
	rx := dsp.Rotate(dsp.Convolve(known, h), 0.8)
	got, err := LS(known, rx, len(h))
	if err != nil {
		t.Fatal(err)
	}
	wantTap0 := h[0] * cmplx.Exp(complex(0, 0.8))
	if cmplx.Abs(got[0]-wantTap0) > 1e-6 {
		t.Fatalf("tap0 = %v want %v", got[0], wantTap0)
	}
}

func TestLSErrors(t *testing.T) {
	if _, err := LS(nil, []complex128{1}, 1); err == nil {
		t.Fatal("empty known accepted")
	}
	if _, err := LS([]complex128{1, 2}, []complex128{1}, 3); err == nil {
		t.Fatal("short rx accepted")
	}
	if _, err := LS([]complex128{1}, []complex128{1}, 0); err == nil {
		t.Fatal("zero taps accepted")
	}
}

func TestZFInvertsChannel(t *testing.T) {
	h := []complex128{0.1, 1, 0.4 - 0.2i, 0.1i}
	c, delay, err := ZF(h, 31)
	if err != nil {
		t.Fatal(err)
	}
	comb := dsp.Convolve(h, c)
	// Combined response ≈ unit impulse at delay.
	if cmplx.Abs(comb[delay]-1) > 0.05 {
		t.Fatalf("comb[delay] = %v want ≈ 1", comb[delay])
	}
	var residual float64
	for i, v := range comb {
		if i != delay {
			residual += cmplx.Abs(v) * cmplx.Abs(v)
		}
	}
	if residual > 0.02 {
		t.Fatalf("residual ISI power %v too high", residual)
	}
}

func TestZFErrors(t *testing.T) {
	if _, _, err := ZF(nil, 5); err == nil {
		t.Fatal("empty channel accepted")
	}
	if _, _, err := ZF([]complex128{1}, 0); err == nil {
		t.Fatal("zero-length equalizer accepted")
	}
	if _, _, err := ZF([]complex128{0, 0}, 5); err == nil {
		t.Fatal("all-zero channel accepted")
	}
}

func TestEqualizeRecoversSignal(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	tx := randSignal(rng, 600)
	h := []complex128{0.05i, 0.9, 0.3, -0.1i}
	rx := dsp.Convolve(tx, h)
	c, delay, err := ZF(h, 41)
	if err != nil {
		t.Fatal(err)
	}
	eq := Equalize(rx, c, delay, len(tx))
	// Interior samples (away from edge effects) must match tx closely.
	var errPow, sigPow float64
	for i := 50; i < len(tx)-50; i++ {
		d := eq[i] - tx[i]
		errPow += real(d)*real(d) + imag(d)*imag(d)
		sigPow += real(tx[i])*real(tx[i]) + imag(tx[i])*imag(tx[i])
	}
	if 10*math.Log10(sigPow/errPow) < 20 {
		t.Fatalf("equalized SNR %.1f dB < 20 dB", 10*math.Log10(sigPow/errPow))
	}
}

func TestEqualizePadsBeyondEnd(t *testing.T) {
	out := Equalize([]complex128{1}, []complex128{1}, 0, 5)
	if len(out) != 5 {
		t.Fatalf("len = %d", len(out))
	}
	for _, v := range out[1:] {
		if v != 0 {
			t.Fatal("out-of-range samples must be zero")
		}
	}
}

func TestMeanPhaseShiftRecoversRotation(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	ref := randSignal(rng, 64)
	for _, theta := range []float64{-2.5, -0.7, 0, 0.3, 1.9} {
		rot := dsp.Rotate(ref, theta)
		got := MeanPhaseShift(rot, ref)
		if math.Abs(got-theta) > 1e-9 {
			t.Fatalf("theta = %v want %v", got, theta)
		}
	}
}

func TestAlignPhaseProperty(t *testing.T) {
	f := func(seed uint64, theta float64) bool {
		if math.IsNaN(theta) || math.IsInf(theta, 0) {
			return true
		}
		rng := rand.New(rand.NewPCG(seed, 17))
		ref := randSignal(rng, 16)
		rot := dsp.Rotate(ref, theta)
		back := AlignPhase(rot, ref)
		for i := range ref {
			if cmplx.Abs(back[i]-ref[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateCFORecovery(t *testing.T) {
	// Build a periodic signal (like the preamble) and impose a CFO.
	m := phy.NewModulator()
	preamble := phy.SpreadBits(phy.BytesToBits(make([]byte, phy.PreambleBytes)))
	wave := m.ModulateChips(preamble)
	lag := 4 * PreamblePeriodSamples
	for _, cfo := range []float64{-800, -50, 120, 900} {
		shifted := dsp.ApplyCFO(wave, cfo, phy.SampleRate)
		got := EstimateCFO(shifted, lag, PreamblePeriodSamples, len(wave)-lag-2*PreamblePeriodSamples, phy.SampleRate)
		if math.Abs(got-cfo) > 2 {
			t.Fatalf("cfo = %v want %v", got, cfo)
		}
	}
}

func TestEstimateCFOZeroOnShortInput(t *testing.T) {
	if got := EstimateCFO([]complex128{1, 2}, 128, 0, 10, phy.SampleRate); got != 0 {
		t.Fatalf("got %v want 0", got)
	}
	if got := EstimateCFO([]complex128{1, 2, 3}, 0, 0, 1, phy.SampleRate); got != 0 {
		t.Fatalf("zero lag: got %v want 0", got)
	}
}

func TestBoxcarAveraging(t *testing.T) {
	x := []complex128{4, 8, 12, 16}
	out := boxcarInto(make([]complex128, len(x)), x, 2)
	// out[i] is the mean of the last 2 samples (ramp-up at i=0).
	if out[1] != 6 || out[2] != 10 || out[3] != 14 {
		t.Fatalf("boxcar = %v", out)
	}
	cp := boxcarInto(make([]complex128, len(x)), x, 1)
	cp[0] = 99
	if x[0] == 99 {
		t.Fatal("boxcarInto(n=1) aliased input")
	}
}

func TestEstimateCFOSurvivesChannel(t *testing.T) {
	// CFO estimation must be channel-agnostic: convolve with a multipath
	// filter first.
	m := phy.NewModulator()
	preamble := phy.SpreadBits(phy.BytesToBits(make([]byte, phy.PreambleBytes)))
	wave := m.ModulateChips(preamble)
	h := []complex128{0.1i, 0.8, 0.3 - 0.2i}
	rx := dsp.ApplyCFO(dsp.Convolve(wave, h), 300, phy.SampleRate)
	lag := 4 * PreamblePeriodSamples
	got := EstimateCFO(rx, lag, PreamblePeriodSamples, len(wave)-lag-2*PreamblePeriodSamples, phy.SampleRate)
	if math.Abs(got-300) > 5 {
		t.Fatalf("cfo through channel = %v want ≈ 300", got)
	}
}
