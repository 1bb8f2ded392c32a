package fft

import (
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"
)

// naiveDFT is the O(n²) reference transform.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for t := 0; t < n; t++ {
			s += x[t] * cmplx.Exp(complex(0, -2*math.Pi*float64(k)*float64(t)/float64(n)))
		}
		out[k] = s
	}
	return out
}

func randVec(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxErr(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if e := cmplx.Abs(a[i] - b[i]); e > m {
			m = e
		}
	}
	return m
}

func TestTransformMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 128, 256} {
		x := randVec(rng, n)
		want := naiveDFT(x)
		PlanFor(n).Forward(x)
		if e := maxErr(x, want); e > 1e-9*float64(n) {
			t.Fatalf("n=%d: max error %g", n, e)
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, n := range []int{1, 2, 8, 32, 256} {
		x := randVec(rng, n)
		y := append([]complex128(nil), x...)
		p := PlanFor(n)
		p.Forward(y)
		p.Inverse(y)
		if e := maxErr(y, x); e > 1e-9*float64(n) {
			t.Fatalf("n=%d: round trip error %g", n, e)
		}
	}
}

func naiveConvolve(x, h []complex128) []complex128 {
	out := make([]complex128, len(x)+len(h)-1)
	for i, xv := range x {
		for j, hv := range h {
			out[i+j] += xv * hv
		}
	}
	return out
}

func TestConvolveMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for _, c := range []struct{ nx, nh int }{{1, 1}, {5, 3}, {64, 11}, {100, 41}, {257, 129}, {1000, 999}} {
		x, h := randVec(rng, c.nx), randVec(rng, c.nh)
		got := Convolve(x, h)
		want := naiveConvolve(x, h)
		if len(got) != len(want) {
			t.Fatalf("nx=%d nh=%d: length %d want %d", c.nx, c.nh, len(got), len(want))
		}
		if e := maxErr(got, want); e > 1e-8*math.Sqrt(float64(c.nx*c.nh)) {
			t.Fatalf("nx=%d nh=%d: max error %g", c.nx, c.nh, e)
		}
	}
	if Convolve(nil, randVec(rng, 4)) != nil || Convolve(randVec(rng, 4), nil) != nil {
		t.Fatal("empty convolution must be nil")
	}
}

func naiveCrossCorrelate(x, ref []complex128) []complex128 {
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

func TestCrossCorrelateMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	for _, c := range []struct{ nx, nr int }{{4, 4}, {16, 5}, {100, 100}, {301, 77}, {1024, 512}} {
		x, ref := randVec(rng, c.nx), randVec(rng, c.nr)
		got := CrossCorrelate(x, ref)
		want := naiveCrossCorrelate(x, ref)
		if len(got) != len(want) {
			t.Fatalf("nx=%d nr=%d: length %d want %d", c.nx, c.nr, len(got), len(want))
		}
		if e := maxErr(got, want); e > 1e-8*math.Sqrt(float64(c.nx*c.nr)) {
			t.Fatalf("nx=%d nr=%d: max error %g", c.nx, c.nr, e)
		}
	}
	if CrossCorrelate(randVec(rng, 3), randVec(rng, 4)) != nil {
		t.Fatal("ref longer than x must be nil")
	}
	if CrossCorrelate(randVec(rng, 3), nil) != nil {
		t.Fatal("empty ref must be nil")
	}
}

func TestPlanForRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, -1, 3, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("PlanFor(%d) did not panic", n)
				}
			}()
			PlanFor(n)
		}()
	}
}

func TestPlanConcurrentUse(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	x := randVec(rng, 311)
	h := randVec(rng, 97)
	want := Convolve(x, h)
	done := make(chan []complex128, 8)
	for g := 0; g < 8; g++ {
		go func() { done <- Convolve(x, h) }()
	}
	for g := 0; g < 8; g++ {
		got := <-done
		if e := maxErr(got, want); e > 1e-10 {
			t.Fatalf("concurrent convolution diverged: %g", e)
		}
	}
}
