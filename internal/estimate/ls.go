// Package estimate implements the data-based channel estimation stack of
// the paper: linear least-squares CIR estimation (Eq. 4), LS zero-forcing
// equalization (Eq. 6–7), mean phase-shift estimation and correction
// (Eq. 8), carrier-frequency-offset estimation from the periodic preamble,
// preamble detection, and the complete receiver decode chain shared by
// every compared technique.
package estimate

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"vvd/internal/dsp"
	"vvd/internal/mathx"
	"vvd/internal/phy"
)

// ErrShortObservation is returned when the received slice cannot cover the
// reference samples needed for an estimate.
var ErrShortObservation = errors.New("estimate: received signal shorter than reference window")

// LS computes the least-squares FIR channel estimate of Eq. 4:
//
//	ĥ = (XᴴX)⁻¹ Xᴴ y
//
// where X is the convolution matrix (Eq. 5) of the known transmitted
// samples and y the received samples over the same window. len(rx) must be
// at least len(known)+taps−1.
//
// The normal equations are assembled in correlation form — XᴴX is the
// Hermitian-Toeplitz autocorrelation of the known samples and Xᴴy their
// cross-correlation with the observation — so the (len(known)+taps−1)×taps
// convolution matrix is never materialized. For the full-waveform ground
// truth estimate this removes a ~6 MiB allocation and an O(n·taps²)
// product per packet, leaving O(n·taps) work.
func LS(known, rx []complex128, taps int) ([]complex128, error) {
	s, err := NewLSSolver(known, taps)
	if err != nil {
		return nil, err
	}
	return s.Estimate(known, rx)
}

// normalEquations builds XᴴX and Xᴴy for the convolution matrix X of the
// known samples without materializing X. Because X is the full (zero-
// boundary) convolution matrix, (XᴴX)[i][j] = Σ_m conj(x[m])·x[m+i−j] —
// the autocorrelation of the known sequence at lag i−j, giving a
// Hermitian-Toeplitz matrix from taps lag values — and
// (Xᴴy)[i] = Σ_m conj(x[m])·y[m+i], a cross-correlation at taps lags.
// len(rx) must be exactly len(known)+taps−1.
func normalEquations(known, rx []complex128, taps int) (*mathx.Matrix, []complex128) {
	return knownGram(known, taps), knownCrossCorr(known, rx, taps)
}

// knownGram builds the Hermitian-Toeplitz XᴴX block of the normal
// equations from the known sequence's autocorrelation at taps lags.
func knownGram(known []complex128, taps int) *mathx.Matrix {
	n := len(known)
	autoc := make([]complex128, taps)
	for d := 0; d < taps; d++ {
		var ra complex128
		x := known[d:]
		for m, kv := range known[:n-d] {
			ra += complex(real(kv), -imag(kv)) * x[m]
		}
		autoc[d] = ra
	}
	xhx := mathx.NewMatrix(taps, taps)
	for i := 0; i < taps; i++ {
		for j := 0; j < taps; j++ {
			if i >= j {
				xhx.Set(i, j, autoc[i-j])
			} else {
				r := autoc[j-i]
				xhx.Set(i, j, complex(real(r), -imag(r)))
			}
		}
	}
	return xhx
}

// knownCrossCorr computes Xᴴy: the cross-correlation of the observation
// with the known sequence at taps lags. len(rx) must be at least
// len(known)+taps−1.
func knownCrossCorr(known, rx []complex128, taps int) []complex128 {
	xhy := make([]complex128, taps)
	for d := 0; d < taps; d++ {
		var ry complex128
		y := rx[d:]
		for m, kv := range known {
			ry += complex(real(kv), -imag(kv)) * y[m]
		}
		xhy[d] = ry
	}
	return xhy
}

// LSSolver performs repeated LS channel estimation against one fixed
// known reference sequence. It holds only the reference-side block of the
// normal equations — XᴴX, which depends only on the known samples — loaded
// and factored once at construction, so each Estimate pays only the Xᴴy
// cross-correlation and the taps×taps solve. It does not hold the
// reference itself: every Estimate is handed the known samples again. A
// caller that regenerates its reference per use therefore keeps taps²
// values per solver instead of a copy of the reference; the campaign
// generator keys one solver per transmit waveform and regenerates the
// waveform for each packet.
type LSSolver struct {
	n    int // reference length
	taps int
	lu   *mathx.LU // factored (XᴴX + εI)
}

// NewLSSolver validates the reference and precomputes the loaded XᴴX.
func NewLSSolver(known []complex128, taps int) (*LSSolver, error) {
	if taps <= 0 {
		return nil, fmt.Errorf("estimate: LSSolver needs taps > 0, got %d", taps)
	}
	if len(known) == 0 {
		return nil, errors.New("estimate: LSSolver needs known samples")
	}
	xhx := knownGram(known, taps)
	var trace float64
	for i := 0; i < taps; i++ {
		trace += real(xhx.At(i, i))
	}
	eps := complex(1e-12*trace/float64(taps), 0)
	for i := 0; i < taps; i++ {
		xhx.Set(i, i, xhx.At(i, i)+eps)
	}
	lu, err := mathx.Factor(xhx)
	if err != nil {
		return nil, err
	}
	return &LSSolver{n: len(known), taps: taps, lu: lu}, nil
}

// Estimate solves for the channel seen by rx. known must hold the samples
// the solver was built from; only its length is checked. The result
// equals LS(known, rx, taps) up to summation-order rounding: Xᴴy
// accumulates all taps lags in a single pass over the reference, reading
// each operand once instead of once per lag, and conjugates each
// reference sample as it reads it. Safe for concurrent use.
func (s *LSSolver) Estimate(known, rx []complex128) ([]complex128, error) {
	if len(known) != s.n {
		return nil, fmt.Errorf("estimate: LSSolver built for %d reference samples, got %d", s.n, len(known))
	}
	rows := s.n + s.taps - 1
	if len(rx) < rows {
		return nil, fmt.Errorf("%w: need %d have %d", ErrShortObservation, rows, len(rx))
	}
	xhy := make([]complex128, s.taps)
	for m, kv := range known {
		kc := complex(real(kv), -imag(kv))
		w := rx[m : m+s.taps]
		for d, wv := range w {
			xhy[d] += kc * wv
		}
	}
	return s.lu.Solve(xhy)
}

// BoundLSSolver is an LSSolver bound to its reference, for callers that
// keep the reference alive anyway. It aliases the reference rather than
// copying it, so the reference must stay unchanged while the solver is in
// use.
type BoundLSSolver struct {
	s     *LSSolver
	known []complex128
}

// Estimate is LSSolver.Estimate against the bound reference.
func (b BoundLSSolver) Estimate(rx []complex128) ([]complex128, error) {
	return b.s.Estimate(b.known, rx)
}

// ZF computes the LS zero-forcing equalizer of Eq. 6–7: an L-tap FIR filter
// c such that h*c ≈ δ at the returned decision delay. The delay (the u
// vector's '1' position) is placed at the centre of the combined response,
// which accommodates the pre-cursor taps of the channel estimate.
func ZF(h []complex128, l int) (c []complex128, delay int, err error) {
	if l <= 0 {
		return nil, 0, fmt.Errorf("estimate: ZF needs L > 0, got %d", l)
	}
	if len(h) == 0 {
		return nil, 0, errors.New("estimate: ZF needs a channel estimate")
	}
	if mathx.MaxAbs(h) == 0 {
		return nil, 0, errors.New("estimate: ZF on all-zero channel")
	}
	hm := mathx.ConvolutionMatrix(h, l)
	rows := len(h) + l - 1
	delay = rows / 2
	u := make([]complex128, rows)
	u[delay] = 1
	c, err = mathx.LeastSquares(hm, u)
	if err != nil {
		return nil, 0, err
	}
	return c, delay, nil
}

// Equalize applies equalizer c to rx and returns n samples aligned with the
// transmitted waveform: out[i] = (c*rx)[i+delay].
func Equalize(rx, c []complex128, delay, n int) []complex128 {
	return equalizeInto(make([]complex128, n), rx, c, delay)
}

// equalizeInto is Equalize writing its len(dst) samples into dst, which
// must not alias rx. Only the kept window of the convolution is computed,
// taps in the outer loop (ascending, zero taps skipped) as dsp.Convolve's
// direct path runs them, so every sample sums the same products in the
// same order and matches Equalize bit for bit. Equalizers long enough for
// the FFT path, and receptions no longer than the equalizer (where the
// direct path swaps its loops), take dsp.Convolve itself.
func equalizeInto(dst, rx, c []complex128, delay int) []complex128 {
	if len(c) >= dsp.FFTMinOverlap || len(rx) <= len(c) {
		full := dsp.Convolve(rx, c)
		for i := range dst {
			dst[i] = 0
			if idx := i + delay; idx < len(full) {
				dst[i] = full[idx]
			}
		}
		return dst
	}
	clear(dst)
	for t, cv := range c {
		if cv == 0 {
			continue
		}
		// Output i reads rx[i+delay-t]; keep that read inside rx.
		lo, hi := max(t-delay, 0), min(len(dst), len(rx)+t-delay)
		if lo >= hi {
			continue
		}
		in := rx[lo+delay-t : hi+delay-t]
		out := dst[lo:hi]
		out = out[:len(in)] // proves the equal lengths to the compiler
		for i, v := range in {
			out[i] += cv * v
		}
	}
	return dst
}

// MeanPhaseShift implements Eq. 8: the phase of the correlation between two
// complex vectors, θ̂ = arg{a·bᴴ}. For channel estimates of the same
// environment taken by imperfect crystals this captures the common phase
// offset between them.
func MeanPhaseShift(a, b []complex128) float64 {
	return cmplx.Phase(mathx.Dot(a, b))
}

// AlignPhase de-rotates h by its mean phase shift relative to ref,
// returning a copy of h whose common phase matches ref.
func AlignPhase(h, ref []complex128) []complex128 {
	theta := MeanPhaseShift(h, ref)
	return dsp.Rotate(h, -theta)
}

// EstimateCFO estimates a carrier frequency offset from the periodic
// preamble: the preamble repeats every PreamblePeriodSamples, so
// arg Σ rx[n+lag]·conj(rx[n]) equals 2π·f·lag/fs for any lag that is a
// multiple of the period, regardless of the (static) channel. A longer lag
// divides the phase-noise floor by the lag, so the caller should use the
// largest lag the preamble allows. Accumulation runs over
// rx[start:start+span]; the caller must keep start ≥ one period (startup
// transient) and start+span+lag inside the preamble.
func EstimateCFO(rx []complex128, lag, start, span int, fs float64) float64 {
	if lag <= 0 || start < 0 || len(rx) < start+lag+2 {
		return 0
	}
	if span > len(rx)-lag-start {
		span = len(rx) - lag - start
	}
	var acc complex128
	for n := start; n < start+span; n++ {
		acc += rx[n+lag] * cmplx.Conj(rx[n])
	}
	if acc == 0 {
		return 0
	}
	return cmplx.Phase(acc) * fs / (2 * math.Pi * float64(lag))
}

// boxcarInto writes the n-sample moving average of x into dst (len(dst)
// must equal len(x); dst must not alias x unless n ≤ 1). The O-QPSK signal
// occupies only the lower quarter of the 8 MHz capture bandwidth, so a
// short boxcar suppresses out-of-band noise ahead of CFO estimation
// without distorting the periodicity.
func boxcarInto(dst, x []complex128, n int) []complex128 {
	if n <= 1 {
		copy(dst, x)
		return dst
	}
	var acc complex128
	scale := complex(1/float64(n), 0)
	for i, v := range x {
		acc += v
		if i >= n {
			acc -= x[i-n]
		}
		dst[i] = acc * scale
	}
	return dst
}

// PreamblePeriodSamples is the periodicity of the 802.15.4 preamble
// waveform: one symbol-0 PN sequence of 32 chips.
const PreamblePeriodSamples = phy.ChipsPerSymbol * phy.SamplesPerChip
