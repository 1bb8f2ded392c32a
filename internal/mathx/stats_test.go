package mathx

import (
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestAutocorrelationLagZeroIsPower(t *testing.T) {
	x := []complex128{1, 1i, -1, -1i}
	r := Autocorrelation(x, 0)
	if math.Abs(real(r[0])-1) > tol || math.Abs(imag(r[0])) > tol {
		t.Fatalf("R[0] = %v want 1", r[0])
	}
}

func TestAutocorrelationConstantSeries(t *testing.T) {
	x := []complex128{2, 2, 2, 2, 2}
	r := Autocorrelation(x, 2)
	// Biased estimator: R[τ] = (N−τ)/N · 4.
	if math.Abs(real(r[1])-4.0*4/5) > tol {
		t.Fatalf("R[1] = %v", r[1])
	}
	if math.Abs(real(r[2])-4.0*3/5) > tol {
		t.Fatalf("R[2] = %v", r[2])
	}
}

func TestAutocorrelationEmpty(t *testing.T) {
	r := Autocorrelation(nil, 3)
	if len(r) != 4 {
		t.Fatalf("len = %d want 4", len(r))
	}
	for _, v := range r {
		if v != 0 {
			t.Fatal("expected zeros for empty input")
		}
	}
}

func TestAutocorrelationLagBeyondLength(t *testing.T) {
	x := []complex128{1, 2}
	r := Autocorrelation(x, 5)
	if len(r) != 6 {
		t.Fatalf("len = %d want 6", len(r))
	}
	for lag := 2; lag <= 5; lag++ {
		if r[lag] != 0 {
			t.Fatalf("R[%d] = %v want 0", lag, r[lag])
		}
	}
}

func TestAutocorrelationHermitianSymmetryOfR0(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	x := make([]complex128, 64)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	r := Autocorrelation(x, 0)
	if math.Abs(imag(r[0])) > 1e-12 {
		t.Fatalf("R[0] must be real, got %v", r[0])
	}
	if real(r[0]) < 0 {
		t.Fatalf("R[0] must be non-negative, got %v", r[0])
	}
}

func TestYuleWalkerRecoversAR1(t *testing.T) {
	// Simulate x[k] = φ·x[k−1] + w[k] and recover φ.
	phi := complex(0.8, 0.1)
	rng := rand.New(rand.NewPCG(42, 43))
	x := make([]complex128, 20000)
	for k := 1; k < len(x); k++ {
		w := complex(rng.NormFloat64(), rng.NormFloat64()) * 0.1
		x[k] = phi*x[k-1] + w
	}
	got, noise, err := YuleWalker(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(got[0]-phi) > 0.05 {
		t.Fatalf("phi = %v want ≈ %v", got[0], phi)
	}
	if noise <= 0 {
		t.Fatalf("noise variance = %v want > 0", noise)
	}
}

func TestYuleWalkerAR2(t *testing.T) {
	phi1, phi2 := complex(0.5, 0), complex(0.3, 0)
	rng := rand.New(rand.NewPCG(7, 8))
	x := make([]complex128, 30000)
	for k := 2; k < len(x); k++ {
		w := complex(rng.NormFloat64(), rng.NormFloat64()) * 0.05
		x[k] = phi1*x[k-1] + phi2*x[k-2] + w
	}
	got, _, err := YuleWalker(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(got[0]-phi1) > 0.06 || cmplx.Abs(got[1]-phi2) > 0.06 {
		t.Fatalf("phi = %v want ≈ [%v %v]", got, phi1, phi2)
	}
}

func TestYuleWalkerZeroSeries(t *testing.T) {
	x := make([]complex128, 100)
	phi, noise, err := YuleWalker(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range phi {
		if c != 0 {
			t.Fatal("expected zero AR coefficients for zero series")
		}
	}
	if noise != 0 {
		t.Fatalf("noise = %v want 0", noise)
	}
}

func TestYuleWalkerOrderErrors(t *testing.T) {
	if _, _, err := YuleWalker([]complex128{1, 2, 3}, 0); err == nil {
		t.Fatal("expected error for p=0")
	}
	if _, _, err := YuleWalker([]complex128{1, 2}, 5); err == nil {
		t.Fatal("expected error for len <= p")
	}
}

func TestYuleWalkerNoiseVarianceNonNegativeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed*2+1))
		x := make([]complex128, 256)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		for p := 1; p <= 4; p++ {
			_, v, err := YuleWalker(x, p)
			if err != nil || v < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
