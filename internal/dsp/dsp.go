// Package dsp provides the signal-processing primitives shared by the PHY
// and the channel simulator: complex convolution, cross-correlation,
// band-limited fractional-delay kernels, the half-sine chip pulse, additive
// white Gaussian noise, and power/SNR utilities.
package dsp

import (
	"math"
	"math/cmplx"
	"math/rand/v2"

	"vvd/internal/dsp/fft"
)

// FFTMinOverlap is the measured size cutoff above which the zero-padded
// FFT path beats direct evaluation: both operands (and, for correlation,
// the number of output lags) must reach this length before the three
// transforms amortize. Below it — notably the 11-tap CIR convolutions —
// direct evaluation stays faster and bit-exact. See DESIGN.md
// ("generation pipeline") for the measurement.
const FFTMinOverlap = 128

// Convolve returns the full linear convolution x*h
// (length len(x)+len(h)−1). Either argument may be the longer one.
// Large inputs (both operands ≥ 128 samples) route through a zero-padded
// FFT, identical to the direct sum within float tolerance.
func Convolve(x, h []complex128) []complex128 {
	if len(x) == 0 || len(h) == 0 {
		return nil
	}
	if len(x) >= FFTMinOverlap && len(h) >= FFTMinOverlap {
		return fft.Convolve(x, h)
	}
	out := make([]complex128, len(x)+len(h)-1)
	directConvolve(out, x, h)
	return out
}

// directConvolve accumulates the linear convolution x*h into the zeroed
// buffer dst, iterating the shorter operand in the outer loop so the
// inner loop runs long contiguous spans.
func directConvolve(dst, x, h []complex128) {
	if len(h) < len(x) {
		x, h = h, x
	}
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		out := dst[i : i+len(h)]
		for j, hv := range h {
			out[j] += xv * hv
		}
	}
}

// ConvolveTo writes the full linear convolution x*h into dst, which must
// have length len(x)+len(h)−1 and must not alias either input (the
// direct path zeroes dst before reading the operands). It lets callers
// with a reusable output buffer avoid the per-call allocation of
// Convolve; the result is identical to Convolve for the same inputs.
func ConvolveTo(dst, x, h []complex128) {
	if len(dst) != len(x)+len(h)-1 {
		panic("dsp: ConvolveTo needs len(dst) == len(x)+len(h)-1")
	}
	if len(x) >= FFTMinOverlap && len(h) >= FFTMinOverlap {
		fft.ConvolveTo(dst, x, h)
		return
	}
	for i := range dst {
		dst[i] = 0
	}
	directConvolve(dst, x, h)
}

// CrossCorrelate computes c[lag] = Σ_n x[n+lag]·conj(ref[n]) for
// lag = 0..len(x)−len(ref). It is the sliding correlation used for frame
// synchronization. Returns nil if ref is longer than x. When both the
// reference and the lag range are long (≥ 128) — preamble sync over a
// full waveform — the correlation runs via FFT; short lag windows stay on
// the direct path with the conjugated reference hoisted out of the lag
// loop.
func CrossCorrelate(x, ref []complex128) []complex128 {
	if len(ref) == 0 || len(ref) > len(x) {
		return nil
	}
	nlags := len(x) - len(ref) + 1
	if nlags >= FFTMinOverlap && len(ref) >= FFTMinOverlap {
		return fft.CrossCorrelate(x, ref)
	}
	// Hoist the conjugation: conj(ref) is reused by every lag.
	refC := make([]complex128, len(ref))
	for i, rv := range ref {
		refC[i] = complex(real(rv), -imag(rv))
	}
	out := make([]complex128, nlags)
	for lag := range out {
		var s complex128
		seg := x[lag : lag+len(refC)]
		for n, rv := range refC {
			s += seg[n] * rv
		}
		out[lag] = s
	}
	return out
}

// Power returns the mean squared magnitude of x (0 for empty input).
func Power(x []complex128) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, c := range x {
		s += real(c)*real(c) + imag(c)*imag(c)
	}
	return s / float64(len(x))
}

// AddAWGN adds circularly-symmetric complex Gaussian noise to x such that
// the resulting per-sample SNR equals snrDB relative to the signal power of
// x. It returns a new slice; x is unmodified. A nil rng panics.
func AddAWGN(x []complex128, snrDB float64, rng *rand.Rand) []complex128 {
	p := Power(x)
	noiseVar := p / math.Pow(10, snrDB/10)
	// Per-dimension standard deviation: total noise power split between I/Q.
	sigma := math.Sqrt(noiseVar / 2)
	out := make([]complex128, len(x))
	for i, c := range x {
		out[i] = c + complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
	return out
}

// AddNoise adds circularly-symmetric complex Gaussian noise with the given
// absolute per-sample noise power (variance split across I/Q). Unlike
// AddAWGN it does not scale with the signal, so fading dips genuinely lose
// SNR. It returns a new slice.
func AddNoise(x []complex128, noisePower float64, rng *rand.Rand) []complex128 {
	if noisePower < 0 {
		noisePower = 0
	}
	sigma := math.Sqrt(noisePower / 2)
	out := make([]complex128, len(x))
	for i, c := range x {
		out[i] = c + complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
	return out
}

// SNRdB estimates the SNR in dB between a clean reference and a noisy
// observation of the same length. Returns +Inf for a perfect match.
func SNRdB(clean, noisy []complex128) float64 {
	n := len(clean)
	if len(noisy) < n {
		n = len(noisy)
	}
	if n == 0 {
		return math.Inf(1)
	}
	var sig, err float64
	for i := 0; i < n; i++ {
		sig += real(clean[i])*real(clean[i]) + imag(clean[i])*imag(clean[i])
		d := noisy[i] - clean[i]
		err += real(d)*real(d) + imag(d)*imag(d)
	}
	if err == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(sig/err)
}

// FractionalDelayKernelInto fills dst with a len(dst)-tap windowed-sinc
// interpolation kernel that realizes a delay of `delay` samples (may be
// fractional) with the kernel's reference (zero-delay) position at index
// `center`. Projecting a continuous-delay multipath component through this
// kernel is what spreads its energy across neighbouring FIR taps, producing
// the pre-cursor leakage visible in the paper's Fig. 5. Per-path projection
// loops reuse one kernel buffer instead of allocating per path.
//
// A Hann window bounds the sinc side lobes so truncation artifacts stay well
// below the dominant taps.
func FractionalDelayKernelInto(dst []float64, center int, delay float64) {
	if center < 0 {
		center = 0
	}
	n := float64(len(dst))
	for i := range dst {
		t := float64(i-center) - delay
		dst[i] = sinc(t) * hann(t, n)
	}
}

func sinc(t float64) float64 {
	if math.Abs(t) < 1e-12 {
		return 1
	}
	return math.Sin(math.Pi*t) / (math.Pi * t)
}

// hann evaluates a Hann window of half-width n/2 centred on t = 0.
func hann(t, n float64) float64 {
	if math.Abs(t) >= n/2 {
		return 0
	}
	return 0.5 * (1 + math.Cos(2*math.Pi*t/n))
}

// HalfSinePulse returns the O-QPSK half-sine pulse sampled at n points
// over its duration: p[k] = sin(π·k/n) for k = 0..n−1 (IEEE 802.15.4
// O-QPSK PHY pulse shape).
func HalfSinePulse(n int) []float64 {
	if n <= 0 {
		panic("dsp: HalfSinePulse needs n > 0")
	}
	p := make([]float64, n)
	for k := range p {
		p[k] = math.Sin(math.Pi * float64(k) / float64(n))
	}
	return p
}

// Rotate multiplies every sample by exp(jθ), returning a new slice.
func Rotate(x []complex128, theta float64) []complex128 {
	r := cmplx.Exp(complex(0, theta))
	out := make([]complex128, len(x))
	for i, c := range x {
		out[i] = c * r
	}
	return out
}

// cfoResync bounds the incremental-rotation recurrence used by the CFO
// helpers: every cfoResync samples the rotator is recomputed exactly from
// the sample index, so the accumulated rounding of the one-multiply
// recurrence stays below ~cfoResync·2⁻⁵² in magnitude and phase.
const cfoResync = 256

// ApplyCFO applies a carrier frequency offset of freqHz at sample rate fs,
// rotating sample n by exp(j·2π·freqHz·n/fs).
func ApplyCFO(x []complex128, freqHz, fs float64) []complex128 {
	out := make([]complex128, len(x))
	ApplyCFOTo(out, x, freqHz, fs)
	return out
}

// ApplyCFOTo writes the CFO-rotated x into dst (dst and x may be the same
// slice for in-place operation; len(dst) must be ≥ len(x)). The per-sample
// rotation uses an incremental complex recurrence resynchronized every
// cfoResync samples instead of a trig call per sample.
func ApplyCFOTo(dst, x []complex128, freqHz, fs float64) {
	step := 2 * math.Pi * freqHz / fs
	sinS, cosS := math.Sincos(step)
	stepRot := complex(cosS, sinS)
	var rot complex128
	for n, c := range x {
		if n%cfoResync == 0 {
			s, co := math.Sincos(step * float64(n))
			rot = complex(co, s)
		}
		dst[n] = c * rot
		rot *= stepRot
	}
}

// Impair applies the per-packet receiver impairments in one fused in-place
// pass over x: a constant phase rotation exp(jθ), a carrier frequency
// offset of freqHz at sample rate fs, and additive circularly-symmetric
// Gaussian noise of the given absolute per-sample power. The noise draws
// consume exactly 2·len(x) normal variates in sample order, matching
// AddNoise. A nil rng panics when noise is applied.
func Impair(x []complex128, theta, freqHz, fs, noisePower float64, rng *rand.Rand) {
	if noisePower < 0 {
		noisePower = 0
	}
	sigma := math.Sqrt(noisePower / 2)
	step := 2 * math.Pi * freqHz / fs
	sinS, cosS := math.Sincos(step)
	stepRot := complex(cosS, sinS)
	base := cmplx.Exp(complex(0, theta))
	var rot complex128
	for n, c := range x {
		if n%cfoResync == 0 {
			s, co := math.Sincos(step * float64(n))
			rot = base * complex(co, s)
		}
		x[n] = c*rot + complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
		rot *= stepRot
	}
}
