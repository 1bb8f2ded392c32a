package mathx

import (
	"fmt"
	"math/cmplx"
)

// Autocorrelation returns the biased sample autocorrelation R[τ] of a complex
// series for lags 0..maxLag:
//
//	R[τ] = (1/N) Σ_{k=τ}^{N−1} x[k]·conj(x[k−τ])
//
// The biased estimator guarantees a positive semi-definite autocorrelation
// matrix, which Yule-Walker fitting relies on.
func Autocorrelation(x []complex128, maxLag int) []complex128 {
	if maxLag < 0 {
		panic("mathx: Autocorrelation needs maxLag >= 0")
	}
	n := len(x)
	out := make([]complex128, maxLag+1)
	if n == 0 {
		return out
	}
	for lag := 0; lag <= maxLag && lag < n; lag++ {
		var s complex128
		for k := lag; k < n; k++ {
			s += x[k] * cmplx.Conj(x[k-lag])
		}
		out[lag] = s / complex(float64(n), 0)
	}
	return out
}

// YuleWalker fits a complex AR(p) model to a series with the Yule-Walker
// equations (paper appendix, Eq. 12–14): R·φ = r where R is the Hermitian
// Toeplitz autocorrelation matrix. Returns the AR coefficients φ₁..φ_p and
// the innovation (driving noise) variance.
func YuleWalker(x []complex128, p int) (phi []complex128, noiseVar float64, err error) {
	if p <= 0 {
		return nil, 0, fmt.Errorf("mathx: YuleWalker needs order p > 0, got %d", p)
	}
	if len(x) <= p {
		return nil, 0, fmt.Errorf("mathx: YuleWalker needs len(x) > p (%d <= %d)", len(x), p)
	}
	r := Autocorrelation(x, p)
	if cmplx.Abs(r[0]) == 0 {
		// All-zero series: a zero AR model reproduces it exactly.
		return make([]complex128, p), 0, nil
	}
	// Hermitian Toeplitz matrix R with R[i][j] = r[i-j] (conj for j>i).
	R := NewMatrix(p, p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			lag := i - j
			if lag >= 0 {
				R.Set(i, j, r[lag])
			} else {
				R.Set(i, j, cmplx.Conj(r[-lag]))
			}
		}
	}
	// Small diagonal loading stabilizes near-deterministic series.
	load := complex(1e-12*cmplx.Abs(r[0]), 0)
	for i := 0; i < p; i++ {
		R.Set(i, i, R.At(i, i)+load)
	}
	rhs := make([]complex128, p)
	copy(rhs, r[1:p+1])
	phi, err = Solve(R, rhs)
	if err != nil {
		return nil, 0, fmt.Errorf("mathx: YuleWalker solve: %w", err)
	}
	// Innovation variance σ² = R[0] − Σ φ_i·conj(R[i]).
	v := real(r[0])
	for i, c := range phi {
		v -= real(c * cmplx.Conj(r[i+1]))
	}
	if v < 0 {
		v = 0
	}
	return phi, v, nil
}
