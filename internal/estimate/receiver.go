package estimate

import (
	"math/cmplx"
	"sync"

	"vvd/internal/dsp"
	"vvd/internal/phy"
)

// Config parameterizes the receiver chain.
type Config struct {
	CIRTaps           int     // N, FIR length of channel estimates (paper: 11)
	EqTaps            int     // L, FIR length of the ZF equalizer
	PreambleThreshold float64 // normalized sync-peak threshold for detection
	MaxSyncLag        int     // search window for coarse frame timing
	// SkipPhaseCorrection disables the Eq. 8 mean phase correction in
	// Decode — an ablation switch showing the correction is load-bearing
	// for blind estimates that cannot know the packet's crystal phase.
	SkipPhaseCorrection bool
	// SoftDespreading correlates soft chip values against the PN set
	// instead of hard Hamming-distance despreading (an extension beyond
	// the paper's receiver, worth ~1-2 dB near threshold).
	SoftDespreading bool
}

// DefaultConfig mirrors the paper's estimation settings.
func DefaultConfig() Config {
	return Config{CIRTaps: 11, EqTaps: 41, PreambleThreshold: 0.64, MaxSyncLag: 16}
}

// Receiver is the decode chain shared by every channel-estimation
// technique: CFO correction → (ZF equalization) → mean phase correction →
// chip decisions → despreading → FCS check. Only the channel estimate
// differs between techniques (paper §5.1).
type Receiver struct {
	Cfg  Config
	Refs *phy.ReferenceWaveforms

	// shrKnown is the SHR reference truncated to whole chips (the trailing
	// half-pulse overlaps the PHR in a real packet).
	shrKnown []complex128

	// preSolvers caches the SHR-reference LSSolver per tap count (keyed
	// because ablations sweep Cfg.CIRTaps): the reference-side normal
	// equations are shared by every packet's preamble estimate.
	preSolvers sync.Map // int -> *LSSolver
}

// NewReceiver builds a receiver with the given configuration.
func NewReceiver(cfg Config) *Receiver {
	refs := phy.NewReferenceWaveforms()
	shrSamples := phy.SyncSymbols * phy.ChipsPerSymbol * phy.SamplesPerChip
	return &Receiver{Cfg: cfg, Refs: refs, shrKnown: refs.SHR[:shrSamples]}
}

// CorrectCFO estimates the carrier frequency offset from the periodic
// preamble and returns the corrected waveform along with the estimate.
// The estimator prefilters to the signal band and correlates at half the
// preamble length for the lowest phase-noise floor.
func (r *Receiver) CorrectCFO(rx []complex128) ([]complex128, float64) {
	out := make([]complex128, len(rx))
	cfo := r.correctCFOTo(out, rx)
	return out, cfo
}

// CorrectCFOInPlace is CorrectCFO operating directly on rx, for callers
// that no longer need the uncorrected waveform (the generation hot path):
// it avoids the full-waveform output allocation.
func (r *Receiver) CorrectCFOInPlace(rx []complex128) ([]complex128, float64) {
	return rx, r.correctCFOTo(rx, rx)
}

// correctCFOTo estimates the CFO and writes the corrected waveform into
// dst (dst may alias rx). The estimator only reads the preamble, so the
// band prefilter runs over that prefix alone rather than the whole
// waveform.
func (r *Receiver) correctCFOTo(dst, rx []complex128) float64 {
	preamble := phy.PreambleBytes * 2 * phy.ChipsPerSymbol * phy.SamplesPerChip // 1024
	lag := preamble / 2                                                         // 4 periods
	start := PreamblePeriodSamples                                              // skip startup transient
	span := preamble - lag - start
	window := rx
	if len(window) > preamble {
		window = window[:preamble] // the boxcar is causal: prefix-exact
	}
	var fbuf [1024]complex128 // stack scratch for the common PHY constants
	scratch := fbuf[:]
	if len(window) > len(scratch) {
		scratch = make([]complex128, len(window)) // larger preamble (e.g. oversampling experiments)
	}
	filtered := boxcarInto(scratch[:len(window)], window, phy.SamplesPerChip)
	cfo := EstimateCFO(filtered, lag, start, span, phy.SampleRate)
	if cfo == 0 {
		copy(dst, rx)
		return 0
	}
	dsp.ApplyCFOTo(dst, rx, -cfo, phy.SampleRate)
	return cfo
}

// DetectPreamble computes the normalized sync correlation peak and compares
// it against the detection threshold. Deep fades (blocked LoS) and noise
// push the peak below threshold, reproducing the preamble detection
// failures that hold back preamble-based estimation in the paper.
func (r *Receiver) DetectPreamble(rx []complex128) (detected bool, peak float64, lag int) {
	peak, lag = r.Refs.NormalizedSyncPeak(rx, r.Cfg.MaxSyncLag)
	return peak >= r.Cfg.PreambleThreshold, peak, lag
}

// EstimateGroundTruth performs LS estimation over the whole transmitted
// waveform ("Perfect Channel Estimation"): practically impossible at a real
// receiver, used as the baseline (paper §5.2).
func (r *Receiver) EstimateGroundTruth(rx, txWave []complex128) ([]complex128, error) {
	return LS(txWave, rx, r.Cfg.CIRTaps)
}

// GroundTruthSolver returns a solver that repeats EstimateGroundTruth
// against a fixed known transmit waveform: the reference-side normal
// equations are precomputed once, halving the per-packet estimation cost
// when many receptions share a transmit waveform. The solver aliases
// txWave, which must stay unchanged while it is in use. A caller that
// regenerates its waveform instead of keeping it keeps only
// NewLSSolver(txWave, r.Cfg.CIRTaps), as the campaign generator does.
func (r *Receiver) GroundTruthSolver(txWave []complex128) (BoundLSSolver, error) {
	s, err := NewLSSolver(txWave, r.Cfg.CIRTaps)
	if err != nil {
		return BoundLSSolver{}, err
	}
	return BoundLSSolver{s: s, known: txWave}, nil
}

// EstimatePreamble performs LS estimation over the known synchronization
// header only (paper Fig. 9, "Preamble Based"). The SHR-side normal
// equations are cached per tap count, so each call pays only the
// observation cross-correlation and the solve.
func (r *Receiver) EstimatePreamble(rx []complex128) ([]complex128, error) {
	taps := r.Cfg.CIRTaps
	if v, ok := r.preSolvers.Load(taps); ok {
		return v.(*LSSolver).Estimate(r.shrKnown, rx)
	}
	s, err := NewLSSolver(r.shrKnown, taps)
	if err != nil {
		return nil, err
	}
	v, _ := r.preSolvers.LoadOrStore(taps, s)
	return v.(*LSSolver).Estimate(r.shrKnown, rx)
}

// Result summarizes the decode of a single packet.
type Result struct {
	PacketOK   bool    // FCS valid after decode
	ChipErrors int     // wrong hard chips over the PSDU
	PSDUChips  int     // total PSDU chips compared
	SyncPeak   float64 // normalized preamble correlation
	Phase      float64 // mean phase correction applied (radians)
}

// CER returns the chip error rate of this decode.
func (res *Result) CER() float64 {
	if res.PSDUChips == 0 {
		return 0
	}
	return float64(res.ChipErrors) / float64(res.PSDUChips)
}

// decodeWork is Decode's scratch, pooled so that decoding packet after
// packet allocates no waveform- or chip-sized buffer.
type decodeWork struct {
	eq    []complex128 // equalized waveform
	soft  []float64    // matched-rail chip values
	chips []byte       // hard chip decisions
	bits  []byte       // despread bits
	raw   []byte       // packed PPDU bytes
}

var decodeWorks = sync.Pool{New: func() any { return new(decodeWork) }}

// grow returns s resized to n, reallocating only when its capacity falls
// short. The contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Decode runs the chain on a CFO-corrected waveform with the given channel
// estimate. A nil estimate selects Standard Decoding (no equalization; the
// receiver aligns on the correlation peak only, per paper §5.1).
// txChips are the true transmitted chips, used to count chip errors.
// Decode only reads rx, so concurrent decodes may share one reception;
// its buffers come from a pool.
func (r *Receiver) Decode(rx []complex128, ppdu *phy.PPDU, txChips []byte, h []complex128) Result {
	var res Result
	nchips := len(ppdu.Bits) / phy.BitsPerSymbol * phy.ChipsPerSymbol
	txLen := phy.WaveformLen(nchips)
	w := decodeWorks.Get().(*decodeWork)
	defer decodeWorks.Put(w)

	var aligned []complex128
	if h == nil {
		// Standard decoding (paper §5.1): frequency offset correction and
		// frame synchronization only — no equalization. Synchronization
		// yields coarse timing and carrier phase; it cannot compensate the
		// channel's frequency selectivity or inter-sample interference.
		_, peak, lag := r.DetectPreamble(rx)
		res.SyncPeak = peak
		if lag < len(rx) {
			aligned = rx[lag:]
		} else {
			aligned = rx
		}
	} else {
		c, delay, err := ZF(h, r.Cfg.EqTaps)
		if err != nil {
			return res // undecodable estimate → packet error
		}
		w.eq = grow(w.eq, txLen)
		aligned = equalizeInto(w.eq, rx, c, delay)
	}

	// Carrier phase recovery from the known SHR: for equalized techniques
	// this is the Eq. 8 / footnote 4 mean phase correction reverting the
	// unknown crystal offset; for standard decoding it is the phase of the
	// synchronization correlation. The rotation itself rides the matched
	// filter.
	var rot complex128
	rotate := !r.Cfg.SkipPhaseCorrection
	if rotate {
		n := min(len(r.shrKnown), len(aligned))
		theta := MeanPhaseShift(aligned[:n], r.shrKnown[:n])
		res.Phase = theta
		rot = cmplx.Exp(complex(0, -theta))
	}

	// Matched filtering ahead of the chip decisions (suppresses
	// out-of-band noise, including ZF-enhanced noise), evaluated at the
	// chip instants only.
	w.soft = grow(w.soft, nchips)
	phy.MatchedChips(w.soft, aligned, rot, rotate)
	w.chips = grow(w.chips, nchips)
	for k, v := range w.soft {
		w.chips[k] = 0
		if v > 0 {
			w.chips[k] = 1
		}
	}

	// Chip errors over the PSDU region.
	headerChips := (len(ppdu.Bits) - ppdu.PSDUBits) / phy.BitsPerSymbol * phy.ChipsPerSymbol
	res.PSDUChips = nchips - headerChips
	for i := headerChips; i < nchips && i < len(txChips); i++ {
		if w.chips[i] != txChips[i] {
			res.ChipErrors++
		}
	}

	// Despread and validate.
	if r.Cfg.SoftDespreading {
		w.bits = phy.DespreadSoftInto(w.bits, w.soft)
	} else {
		w.bits = phy.DespreadChipsInto(w.bits, w.chips)
	}
	if len(w.bits)%8 != 0 {
		return res
	}
	w.raw = phy.BitsToBytesInto(w.raw, w.bits)
	hdr := phy.PreambleBytes + 2 // preamble + SFD + PHR
	if len(w.raw) < hdr+ppdu.PSDULen {
		return res
	}
	res.PacketOK = phy.ValidPSDU(w.raw[hdr : hdr+ppdu.PSDULen])
	return res
}
