package phy

import (
	"math"
	"sync"

	"vvd/internal/dsp"
)

// Modulator converts bit streams into O-QPSK half-sine-shaped complex
// baseband waveforms at SamplesPerChip samples per chip. The zero value is
// not usable; create one with NewModulator.
type Modulator struct {
	pulse []float64 // half-sine over one pulse duration (2 chip periods)
}

// NewModulator returns a modulator for the standard pulse shape.
func NewModulator() *Modulator {
	// The O-QPSK pulse spans two chip periods (each rail runs at half the
	// chip rate); sampled at SamplesPerChip per chip that is 2·SPS samples.
	return &Modulator{pulse: dsp.HalfSinePulse(2 * SamplesPerChip)}
}

// WaveformLen returns the number of complex samples produced for nchips.
func WaveformLen(nchips int) int {
	if nchips <= 0 {
		return 0
	}
	return (nchips + 1) * SamplesPerChip
}

// ModulateChips maps a chip sequence (values 0/1) onto the O-QPSK waveform:
// even-indexed chips ride the in-phase rail, odd-indexed chips the
// quadrature rail delayed by one chip period (the "offset" in O-QPSK), each
// shaped by a half-sine spanning two chip periods.
func (m *Modulator) ModulateChips(chips []byte) []complex128 {
	return m.ModulateChipsInto(nil, chips)
}

// ModulateChipsInto is ModulateChips writing into dst, which is reused
// when its capacity covers WaveformLen(len(chips)) and reallocated
// otherwise; whatever dst held is overwritten. It returns the waveform.
// A caller modulating packet after packet into one buffer allocates only
// when the waveform grows.
func (m *Modulator) ModulateChipsInto(dst []complex128, chips []byte) []complex128 {
	n := WaveformLen(len(chips))
	var out []complex128
	if cap(dst) < n {
		out = make([]complex128, n)
	} else {
		out = dst[:n]
		clear(out)
	}
	for k, c := range chips {
		amp := -1.0
		if c != 0 {
			amp = 1.0
		}
		start := k * SamplesPerChip
		if k%2 == 0 {
			for i, pv := range m.pulse {
				out[start+i] += complex(amp*pv, 0)
			}
		} else {
			for i, pv := range m.pulse {
				out[start+i] += complex(0, amp*pv)
			}
		}
	}
	return out
}

// ModulateBits spreads bits to chips and modulates them.
func (m *Modulator) ModulateBits(bits []byte) []complex128 {
	return m.ModulateChips(SpreadBits(bits))
}

// ModulatePPDU returns the waveform for an assembled PPDU.
func (m *Modulator) ModulatePPDU(p *PPDU) []complex128 {
	return m.ModulateBits(p.Bits)
}

// MatchedChips fills soft with the per-chip matched-rail values of x,
// one per chip (len(soft) chips): x is multiplied by rot (when rotate is
// set) and correlated with the half-sine chip pulse, normalized so pulse
// peaks keep unit amplitude, and chip k is read at its pulse peak
// (k+1)·SamplesPerChip — the real part for even chips, the imaginary part
// for odd ones. This is the matched-filter receiver: out-of-band noise
// (including noise that zero-forcing equalization enhanced outside the
// signal band) is suppressed ahead of the chip decisions, while same-rail
// pulses stay orthogonal at the decision instants.
//
// The filter runs only at the chip instants and each sample is rotated
// where the filter reads it, so nothing waveform-sized is written; every
// value equals rotating the whole waveform, filtering it at every sample
// and sampling the result (SoftChips). Chips whose peak lies beyond x read
// zero.
func MatchedChips(soft []float64, x []complex128, rot complex128, rotate bool) {
	pulse, energy := matchedPulse()
	half := len(pulse) / 2
	for k := range soft {
		idx := (k + 1) * SamplesPerChip
		if idx >= len(x) {
			clear(soft[k:])
			return
		}
		var acc complex128
		for m, pv := range pulse {
			j := idx + m - half
			if j < 0 || j >= len(x) {
				continue
			}
			s := x[j]
			if rotate {
				// The conversion rounds the product, as storing the rotated
				// waveform would, so no platform fuses it into the filter.
				s = complex128(s * rot)
			}
			acc += s * complex(pv, 0)
		}
		acc /= complex(energy, 0)
		if k%2 == 0 {
			soft[k] = real(acc)
		} else {
			soft[k] = imag(acc)
		}
	}
}

// matchedPulse returns the cached half-sine matched-filter taps and their
// energy (built once; the pulse shape is a PHY constant).
var matchedPulse = sync.OnceValues(func() ([]float64, float64) {
	pulse := dsp.HalfSinePulse(2 * SamplesPerChip)
	var energy float64
	for _, p := range pulse {
		energy += p * p
	}
	return pulse, energy
})

// ChipDecisions slices hard chip decisions out of a (equalized,
// phase-corrected) waveform. Chip k has its pulse peak at sample (k+1)·SPS;
// even chips decide on the real part, odd chips on the imaginary part.
// Missing samples beyond the waveform end decide as zero (chip 0).
func ChipDecisions(waveform []complex128, nchips int) []byte {
	chips := make([]byte, nchips)
	for k := 0; k < nchips; k++ {
		idx := (k + 1) * SamplesPerChip
		if idx >= len(waveform) {
			break
		}
		var v float64
		if k%2 == 0 {
			v = real(waveform[idx])
		} else {
			v = imag(waveform[idx])
		}
		if v > 0 {
			chips[k] = 1
		}
	}
	return chips
}

// SoftChips returns the per-chip matched-rail sample values (before the
// sign decision), useful for diagnostics and soft metrics.
func SoftChips(waveform []complex128, nchips int) []float64 {
	soft := make([]float64, nchips)
	for k := 0; k < nchips; k++ {
		idx := (k + 1) * SamplesPerChip
		if idx >= len(waveform) {
			break
		}
		if k%2 == 0 {
			soft[k] = real(waveform[idx])
		} else {
			soft[k] = imag(waveform[idx])
		}
	}
	return soft
}

// ReferenceWaveforms caches commonly reused transmit-side waveform segments.
type ReferenceWaveforms struct {
	mod *Modulator
	// SHR is the modulated synchronization header (preamble + SFD).
	SHR []complex128
	// shrConj is conj(SHR), hoisted once for the sync correlation.
	shrConj []complex128
	// shrEnergy is √(Σ|SHR|²), the reference side of the sync normalizer.
	shrEnergy float64
}

// NewReferenceWaveforms builds the cached references.
func NewReferenceWaveforms() *ReferenceWaveforms {
	m := NewModulator()
	shr := m.ModulateChips(SHRChips())
	conj := make([]complex128, len(shr))
	for i, v := range shr {
		conj[i] = complex(real(v), -imag(v))
	}
	return &ReferenceWaveforms{
		mod:       m,
		SHR:       shr,
		shrConj:   conj,
		shrEnergy: math.Sqrt(dsp.Power(shr) * float64(len(shr))),
	}
}

// Modulator exposes the underlying modulator.
func (r *ReferenceWaveforms) Modulator() *Modulator { return r.mod }

// NormalizedSyncPeak correlates rx against the SHR reference at lag 0..max
// and returns the peak magnitude normalized by the local signal energy, plus
// its lag. This is the receiver's preamble detection statistic: deep fades
// push it below threshold, modelling the paper's preamble detection
// failures.
//
// All lags are produced by a single sliding correlation (FFT-accelerated
// above the dsp size cutoff) and the per-lag window energy is maintained
// incrementally, so the search costs O(refLen + maxLag) bookkeeping on
// top of the one correlation instead of a full reference pass per lag.
func (r *ReferenceWaveforms) NormalizedSyncPeak(rx []complex128, maxLag int) (peak float64, lag int) {
	refLen := len(r.SHR)
	if refLen == 0 || refLen > len(rx) {
		return 0, 0
	}
	if maxLag > len(rx)-refLen {
		maxLag = len(rx) - refLen
	}
	if maxLag < 0 {
		maxLag = 0
	}
	refE := r.shrEnergy
	// Long searches ride the dsp FFT fast path; short lag windows (the
	// receiver's MaxSyncLag regime) correlate inline against the cached
	// conjugate reference without allocating.
	var c []complex128
	if maxLag+1 >= dsp.FFTMinOverlap && refLen >= dsp.FFTMinOverlap {
		c = dsp.CrossCorrelate(rx[:refLen+maxLag], r.SHR)
	}
	corrAt := func(l int) complex128 {
		if c != nil {
			return c[l]
		}
		var s complex128
		seg := rx[l : l+refLen]
		for n, rv := range r.shrConj {
			s += seg[n] * rv
		}
		return s
	}
	windowEnergy := func(l int) float64 {
		var e float64
		for _, v := range rx[l : l+refLen] {
			e += real(v)*real(v) + imag(v)*imag(v)
		}
		return e
	}
	segE := windowEnergy(0)
	best, bestLag := 0.0, 0
	for l := 0; l <= maxLag; l++ {
		if l > 0 {
			if l%4096 == 0 {
				// Resynchronize the rolling sum so subtraction rounding
				// cannot accumulate over long searches.
				segE = windowEnergy(l)
			} else {
				out, in := rx[l-1], rx[l+refLen-1]
				segE += real(in)*real(in) + imag(in)*imag(in) -
					real(out)*real(out) - imag(out)*imag(out)
			}
		}
		if segE <= 0 {
			continue
		}
		if v := cAbs(corrAt(l)) / (refE * math.Sqrt(segE)); v > best {
			best, bestLag = v, l
		}
	}
	return best, bestLag
}

func cAbs(c complex128) float64 {
	return math.Hypot(real(c), imag(c))
}
