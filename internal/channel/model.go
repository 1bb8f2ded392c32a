package channel

import (
	"math"
	"math/rand/v2"
	"sync"

	"vvd/internal/dsp"
	"vvd/internal/room"
)

// Model projects the continuous-delay multipath components onto the
// band-limited FIR CIR that the receiver estimates: an N-tap filter at the
// receiver sample rate with a configurable number of pre-cursor taps (the
// paper estimates 11 taps with the dominant energy on taps 6–8 because
// pre-cursor taps are allowed).
type Model struct {
	Geometry   *Geometry
	Taps       int     // FIR length (paper: 11)
	Precursor  int     // index of the zero-delay reference tap (paper: 5, 0-based)
	SampleRate float64 // receiver sample rate in Hz

	// ReferenceDelay is subtracted from every path delay before projection
	// so the earliest arrival lands on the reference tap. It is fixed to
	// the LoS delay of the empty room, mirroring a receiver synchronized
	// once to the strongest arrival.
	ReferenceDelay float64

	// HardwareResponse is the combined transmit/receive chain impulse
	// response (mote pulse-shaping imperfections, USRP analog and CIC
	// filters) convolved into every CIR. It gives the channel genuine
	// multi-tap inter-sample interference — the component a ZF equalizer
	// removes and standard (non-equalized) decoding cannot. Index
	// HardwareDelay is the main tap.
	HardwareResponse []complex128
	// HardwareDelay is the index of the main tap in HardwareResponse.
	HardwareDelay int

	// clearGain caches Σ|h_i|² of the empty-room CIR (computed once on
	// first use): every Link over the same model shares it, so per-packet
	// link construction no longer re-projects the clear channel.
	clearOnce sync.Once
	clearGain float64
}

// ClearGain returns Σ|h_i|² of the empty-room CIR, computed once and
// cached. It converts the nominal clear-channel SNR into an absolute
// noise power.
func (m *Model) ClearGain() float64 {
	m.clearOnce.Do(func() {
		clear := m.ProjectPaths(m.Geometry.PathsClear())
		for _, c := range clear {
			m.clearGain += real(c)*real(c) + imag(c)*imag(c)
		}
	})
	return m.clearGain
}

// DefaultHardwareResponse models the testbed radio chain: a causal main
// tap with pre/post ringing and a slight quadrature skew.
func DefaultHardwareResponse() []complex128 {
	return []complex128{
		0.10i, // −4 samples (one chip early)
		0,
		0.08 - 0.05i, // −2 samples
		0,
		1, // main tap
		0,
		0.18 - 0.22i,  // +2 samples (half chip)
		0.12 + 0.10i,  // +3 samples
		-0.12 + 0.28i, // +4 samples (one chip late)
	}
}

// SamplingPhase is the fractional-sample offset between the receiver's
// sampling clock and the first arrival. A real sniffer samples at an
// arbitrary phase; a non-zero fraction splits the dominant arrival across
// two to three taps, reproducing the paper's Fig. 5 tap cluster (taps 6–8)
// and giving the ZF equalizer genuine inter-sample interference to remove.
const SamplingPhase = 0.40

// NewModel builds the default 11-tap model over a geometry.
func NewModel(g *Geometry, sampleRate float64) *Model {
	losDelay := g.Room.TX.Dist(g.Room.RX) / speedOfLight
	return &Model{
		Geometry:         g,
		Taps:             11,
		Precursor:        5,
		SampleRate:       sampleRate,
		ReferenceDelay:   losDelay - SamplingPhase/sampleRate,
		HardwareResponse: DefaultHardwareResponse(),
		HardwareDelay:    4,
	}
}

// CIR returns the N-tap complex channel impulse response for the given
// human position. Each path contributes its complex gain through a
// windowed-sinc fractional-delay kernel, which spreads energy onto
// neighbouring taps (band-limitation leakage).
func (m *Model) CIR(h room.Human) []complex128 {
	paths := m.Geometry.Paths(h)
	return m.ProjectPaths(paths)
}

// CIRMulti is CIR for any number of occupants (bit-identical to CIR for
// exactly one, to the empty-room projection for none).
func (m *Model) CIRMulti(hs []room.Human) []complex128 {
	return m.ProjectPaths(m.Geometry.PathsMulti(hs))
}

// ProjectPaths maps explicit paths onto the FIR taps and convolves in the
// hardware response (truncated back to Taps, keeping the main tap on the
// same index).
func (m *Model) ProjectPaths(paths []Path) []complex128 {
	taps := make([]complex128, m.Taps)
	var kbuf [32]float64 // stack buffer reused across paths (Taps ≤ 32)
	kernel := kbuf[:]
	if m.Taps > len(kbuf) {
		kernel = make([]float64, m.Taps)
	}
	kernel = kernel[:m.Taps]
	for _, p := range paths {
		d := (p.Delay - m.ReferenceDelay) * m.SampleRate // delay in samples
		dsp.FractionalDelayKernelInto(kernel, m.Precursor, d)
		for i, k := range kernel {
			taps[i] += p.Gain * complex(k, 0)
		}
	}
	if len(m.HardwareResponse) == 0 {
		return taps
	}
	n := m.Taps + len(m.HardwareResponse) - 1
	var fbuf [64]complex128
	var full []complex128
	if n <= len(fbuf) {
		full = fbuf[:n]
	} else {
		full = make([]complex128, n)
	}
	dsp.ConvolveTo(full, taps, m.HardwareResponse)
	// Truncate back into taps (full was computed from it; it is free now).
	for i := range taps {
		if idx := i + m.HardwareDelay; idx < n {
			taps[i] = full[idx]
		} else {
			taps[i] = 0
		}
	}
	return taps
}

// DominantTap returns the index of the largest-magnitude tap.
func DominantTap(cir []complex128) int {
	best, idx := -1.0, 0
	for i, c := range cir {
		if a := real(c)*real(c) + imag(c)*imag(c); a > best {
			best, idx = a, i
		}
	}
	return idx
}

// Impairments models the receiver-side non-idealities of the testbed.
type Impairments struct {
	SNRdB float64 // per-sample AWGN level
	// PhaseStdDev is the standard deviation (radians) of the per-packet
	// mean phase offset caused by imperfect sensor crystals (paper §3.1);
	// each packet draws an independent offset.
	PhaseStdDev float64
	// CFOStdDevHz is the std-dev of a small residual carrier frequency
	// offset per packet.
	CFOStdDevHz float64
}

// DefaultImpairments mirrors the measurement conditions: an operating point
// where deep fades cause packet loss (paper PERs fall in 10⁻²…10⁻¹),
// noticeable crystal phase offsets, small residual CFO.
func DefaultImpairments() Impairments {
	return Impairments{SNRdB: 13, PhaseStdDev: 0.45, CFOStdDevHz: 40}
}

// Link ties the channel model and impairments together to produce received
// waveforms. It is the simulated equivalent of "transmit from the mote,
// capture with the USRP".
//
// The noise floor is absolute: Imp.SNRdB defines the SNR of the *clear*
// (no-human) channel, so human blockage genuinely degrades the link.
type Link struct {
	Model *Model
	Imp   Impairments
	rng   *rand.Rand
}

// NewLink creates a link; rng drives noise and impairment draws.
func NewLink(m *Model, imp Impairments, rng *rand.Rand) *Link {
	if rng == nil {
		panic("channel: NewLink needs a rand source")
	}
	m.ClearGain() // warm the shared clear-channel gain cache
	return &Link{Model: m, Imp: imp, rng: rng}
}

// Reception is one received packet observation.
type Reception struct {
	Waveform []complex128 // received baseband samples (full convolution tail included)
	TrueCIR  []complex128 // the block-fading CIR actually applied
	Phase    float64      // crystal phase offset applied (radians)
	CFO      float64      // carrier frequency offset applied (Hz)
}

// Transmit applies block fading (one CIR for the whole packet), the crystal
// phase offset, CFO and AWGN to a transmit waveform given the instantaneous
// human position.
func (l *Link) Transmit(tx []complex128, h room.Human) *Reception {
	return l.TransmitMultiBufPow(tx, dsp.Power(tx), []room.Human{h}, nil)
}

// TransmitMultiBufPow is Transmit for any number of occupants, for callers
// that already know the mean power of tx (txPower must equal
// dsp.Power(tx)), with an optional reusable output buffer. The
// block-fading CIR reflects every body's blockage, scatter and tail
// stirring; zero occupants transmits through the empty room. When buf has
// capacity for the received waveform it backs Reception.Waveform, so a
// caller processing packets in a loop pays one waveform allocation total.
// The impairment chain — phase rotation, CFO, absolute-power AWGN — runs
// as a single in-place pass with the same RNG draw order as the historical
// Rotate/ApplyCFO/AddNoise sequence, keeping link realizations seed-
// reproducible.
func (l *Link) TransmitMultiBufPow(tx []complex128, txPower float64, hs []room.Human, buf []complex128) *Reception {
	cir := l.Model.CIRMulti(hs)
	n := len(tx) + len(cir) - 1
	var rx []complex128
	if cap(buf) >= n {
		rx = buf[:n]
		dsp.ConvolveTo(rx, tx, cir)
	} else {
		rx = dsp.Convolve(tx, cir)
	}
	phase := l.rng.NormFloat64() * l.Imp.PhaseStdDev
	cfo := l.rng.NormFloat64() * l.Imp.CFOStdDevHz
	noisePower := txPower * l.Model.ClearGain() / math.Pow(10, l.Imp.SNRdB/10)
	dsp.Impair(rx, phase, cfo, l.Model.SampleRate, noisePower, l.rng)
	return &Reception{Waveform: rx, TrueCIR: cir, Phase: phase, CFO: cfo}
}
