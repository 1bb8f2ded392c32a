// Package fft implements the fast Fourier transform backing the dsp
// package's fast convolution and correlation paths: an iterative in-place
// radix-2 Cooley-Tukey transform over power-of-two lengths, to which both
// helpers zero-pad.
//
// Plans (twiddle factors, bit-reversal permutations) are computed once per
// size and cached in a process-wide table; they are immutable after
// construction and safe for concurrent use. Scratch buffers are pooled so
// steady-state transforms allocate only their output.
package fft

import (
	"math"
	"sync"
)

// Plan holds the precomputed tables for a power-of-two transform size.
// A Plan is immutable and safe for concurrent use.
type Plan struct {
	n       int
	logN    uint
	rev     []int32      // bit-reversal permutation
	twiddle []complex128 // e^{-2πi k/n} for k = 0..n/2-1
}

var planCache sync.Map // int -> *Plan

// PlanFor returns the (cached) plan for power-of-two size n.
// It panics if n is not a positive power of two.
func PlanFor(n int) *Plan {
	if n <= 0 || n&(n-1) != 0 {
		panic("fft: PlanFor needs a positive power-of-two size")
	}
	if p, ok := planCache.Load(n); ok {
		return p.(*Plan)
	}
	p := newPlan(n)
	actual, _ := planCache.LoadOrStore(n, p)
	return actual.(*Plan)
}

func newPlan(n int) *Plan {
	logN := uint(0)
	for 1<<logN < n {
		logN++
	}
	rev := make([]int32, n)
	for i := 1; i < n; i++ {
		rev[i] = rev[i>>1]>>1 | int32(i&1)<<(logN-1)
	}
	tw := make([]complex128, n/2)
	for k := range tw {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		tw[k] = complex(c, s)
	}
	return &Plan{n: n, logN: logN, rev: rev, twiddle: tw}
}

// Forward computes the in-place DFT of x (len(x) must equal p.N()).
func (p *Plan) Forward(x []complex128) {
	if len(x) != p.n {
		panic("fft: Forward length mismatch")
	}
	p.transform(x)
}

// Inverse computes the in-place inverse DFT of x, scaled by 1/n.
func (p *Plan) Inverse(x []complex128) {
	if len(x) != p.n {
		panic("fft: Inverse length mismatch")
	}
	// IFFT(x) = conj(FFT(conj(x)))/n.
	for i, v := range x {
		x[i] = complex(real(v), -imag(v))
	}
	p.transform(x)
	inv := 1 / float64(p.n)
	for i, v := range x {
		x[i] = complex(real(v)*inv, -imag(v)*inv)
	}
}

// transform is the iterative radix-2 decimation-in-time kernel.
func (p *Plan) transform(x []complex128) {
	for i, r := range p.rev {
		if int32(i) < r {
			x[i], x[r] = x[r], x[i]
		}
	}
	n := p.n
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size // twiddle stride
		for start := 0; start < n; start += size {
			tw := 0
			for i := start; i < start+half; i++ {
				w := p.twiddle[tw]
				tw += step
				a, b := x[i], x[i+half]*w
				x[i], x[i+half] = a+b, a-b
			}
		}
	}
}

// NextPow2 returns the smallest power of two ≥ n (minimum 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// scratch pools per-size work buffers for the convolution helpers.
var scratch sync.Pool // *[]complex128

func getBuf(n int) []complex128 {
	if v := scratch.Get(); v != nil {
		b := *v.(*[]complex128)
		if cap(b) >= n {
			b = b[:n]
			for i := range b {
				b[i] = 0
			}
			return b
		}
	}
	return make([]complex128, n)
}

func putBuf(b []complex128) {
	scratch.Put(&b)
}

// Convolve returns the full linear convolution x*h (length
// len(x)+len(h)−1) computed with a single zero-padded power-of-two FFT
// (no overlap segmentation). Returns nil for empty inputs.
func Convolve(x, h []complex128) []complex128 {
	if len(x) == 0 || len(h) == 0 {
		return nil
	}
	out := make([]complex128, len(x)+len(h)-1)
	ConvolveTo(out, x, h)
	return out
}

// ConvolveTo writes the full linear convolution x*h into dst, which must
// have length len(x)+len(h)−1: the FFT pipeline runs entirely in pooled
// scratch, so a caller with a reusable output buffer allocates nothing.
func ConvolveTo(dst, x, h []complex128) {
	outLen := len(x) + len(h) - 1
	if len(dst) != outLen {
		panic("fft: ConvolveTo needs len(dst) == len(x)+len(h)-1")
	}
	n := NextPow2(outLen)
	p := PlanFor(n)
	a := getBuf(n)
	b := getBuf(n)
	copy(a, x)
	copy(b, h)
	p.Forward(a)
	p.Forward(b)
	for i := range a {
		a[i] *= b[i]
	}
	p.Inverse(a)
	copy(dst, a)
	putBuf(a)
	putBuf(b)
}

// CrossCorrelate computes c[lag] = Σ_n x[n+lag]·conj(ref[n]) for
// lag = 0..len(x)−len(ref) via FFT: the correlation is the convolution of
// x with the conjugated, time-reversed reference. Returns nil if ref is
// empty or longer than x.
func CrossCorrelate(x, ref []complex128) []complex128 {
	m := len(ref)
	if m == 0 || m > len(x) {
		return nil
	}
	outLen := len(x) - m + 1
	n := NextPow2(len(x) + m - 1)
	p := PlanFor(n)
	a := getBuf(n)
	b := getBuf(n)
	copy(a, x)
	for i, v := range ref { // conj + time reversal
		b[m-1-i] = complex(real(v), -imag(v))
	}
	p.Forward(a)
	p.Forward(b)
	for i := range a {
		a[i] *= b[i]
	}
	p.Inverse(a)
	// Full correlation lags start at −(m−1); lag 0 sits at index m−1.
	out := make([]complex128, outLen)
	copy(out, a[m-1:m-1+outLen])
	putBuf(a)
	putBuf(b)
	return out
}
