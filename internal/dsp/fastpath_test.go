package dsp

import (
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// The FFT fast paths must agree with the direct definitions within float
// tolerance at every length — including primes (odd padding) and lengths
// straddling the FFTMinOverlap cutoff — and must preserve the argmax of a
// sync correlation exactly.

func randSignal(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// directConvolveRef is the textbook O(n·m) reference.
func directConvolveRef(x, h []complex128) []complex128 {
	if len(x) == 0 || len(h) == 0 {
		return nil
	}
	out := make([]complex128, len(x)+len(h)-1)
	for i, xv := range x {
		for j, hv := range h {
			out[i+j] += xv * hv
		}
	}
	return out
}

func directCrossCorrelateRef(x, ref []complex128) []complex128 {
	if len(ref) == 0 || len(ref) > len(x) {
		return nil
	}
	out := make([]complex128, len(x)-len(ref)+1)
	for lag := range out {
		var s complex128
		for n, rv := range ref {
			s += x[lag+n] * cmplx.Conj(rv)
		}
		out[lag] = s
	}
	return out
}

func closeEnough(t *testing.T, name string, got, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d want %d", name, len(got), len(want))
	}
	var scale float64
	for _, v := range want {
		if a := cmplx.Abs(v); a > scale {
			scale = a
		}
	}
	if scale == 0 {
		scale = 1
	}
	for i := range got {
		if cmplx.Abs(got[i]-want[i]) > 1e-9*scale*float64(len(want)) {
			t.Fatalf("%s: index %d: %v want %v", name, i, got[i], want[i])
		}
	}
}

// propertyLengths mixes primes, powers of two and cutoff-straddling sizes.
var propertyLengths = [][2]int{
	{11, 11}, {127, 11}, {127, 127}, {128, 128}, {129, 127},
	{131, 128}, {251, 131}, {500, 499}, {1009, 128}, {1284, 1284},
	{2048, 131}, {4093, 251},
}

func TestConvolveFFTMatchesDirectProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(100, 200))
	for _, ln := range propertyLengths {
		x, h := randSignal(rng, ln[0]), randSignal(rng, ln[1])
		closeEnough(t, "Convolve", Convolve(x, h), directConvolveRef(x, h))
		dst := make([]complex128, len(x)+len(h)-1)
		ConvolveTo(dst, x, h)
		closeEnough(t, "ConvolveTo", dst, directConvolveRef(x, h))
	}
}

func TestCrossCorrelateFFTMatchesDirectProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(102, 202))
	for _, ln := range propertyLengths {
		n, m := ln[0], ln[1]
		if m > n {
			n, m = m, n
		}
		// Long lag ranges force the FFT path: x longer than ref by ≥ the
		// cutoff in half the cases.
		x, ref := randSignal(rng, n+200), randSignal(rng, m)
		closeEnough(t, "CrossCorrelate", CrossCorrelate(x, ref), directCrossCorrelateRef(x, ref))
	}
}

// TestApplyCFOToMatchesExp checks the incremental-rotation recurrence
// against the per-sample exponential definition across several spans
// (longer than the resync interval, so drift correction is exercised).
func TestApplyCFOToMatchesExp(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	x := randSignal(rng, 3000)
	const freq, fs = 137.5, 8e6
	got := ApplyCFO(x, freq, fs)
	want := make([]complex128, len(x))
	step := 2 * math.Pi * freq / fs
	for n, c := range x {
		want[n] = c * cmplx.Exp(complex(0, step*float64(n)))
	}
	closeEnough(t, "ApplyCFO", got, want)
}

// TestImpairMatchesSequence pins the fused impairment pass against the
// historical Rotate → ApplyCFO → AddNoise chain, including its RNG draw
// order (two normal variates per sample, in sample order).
func TestImpairMatchesSequence(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 42))
	x := randSignal(rng, 2000)
	const theta, freq, fs, np = 0.37, 250.0, 8e6, 0.02
	fused := append([]complex128(nil), x...)
	Impair(fused, theta, freq, fs, np, rand.New(rand.NewPCG(9, 9)))
	want := AddNoise(ApplyCFO(Rotate(x, theta), freq, fs), np, rand.New(rand.NewPCG(9, 9)))
	closeEnough(t, "Impair", fused, want)
}

// TestCrossCorrelateSyncPeakExact pins the frame-sync contract: whatever
// float-level differences the FFT path introduces, the index of the
// correlation peak — the receiver's timing decision — must match the
// direct computation exactly.
func TestCrossCorrelateSyncPeakExact(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
		refLen := 128 + int(rng.Uint64()%512) // straddles the FFT cutoff
		ref := randSignal(rng, refLen)
		offset := int(rng.Uint64() % 300)
		x := randSignal(rng, refLen+400)
		for i := range x {
			x[i] *= 0.05 // noise floor
		}
		for i, v := range ref {
			x[offset+i] += v
		}
		argmax := func(c []complex128) int {
			best, idx := -1.0, 0
			for i, v := range c {
				if a := cmplx.Abs(v); a > best {
					best, idx = a, i
				}
			}
			return idx
		}
		fftLag := argmax(CrossCorrelate(x, ref))
		directLag := argmax(directCrossCorrelateRef(x, ref))
		return fftLag == offset && directLag == offset
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
