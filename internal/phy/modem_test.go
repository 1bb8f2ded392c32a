package phy

import (
	"math"
	"math/rand/v2"
	"testing"

	"vvd/internal/dsp"
)

func TestWaveformLen(t *testing.T) {
	if got := WaveformLen(32); got != 33*SamplesPerChip {
		t.Fatalf("WaveformLen(32) = %d", got)
	}
	if WaveformLen(0) != 0 {
		t.Fatal("WaveformLen(0) must be 0")
	}
}

func TestModulateChipsRails(t *testing.T) {
	m := NewModulator()
	// Single even chip = in-phase rail only.
	w := m.ModulateChips([]byte{1})
	for i, c := range w {
		if imag(c) != 0 {
			t.Fatalf("sample %d has quadrature energy for even chip", i)
		}
	}
	if real(w[SamplesPerChip]) < 0.99 {
		t.Fatalf("even-chip peak %v, want ≈ 1 at (k+1)·SPS", w[SamplesPerChip])
	}
	// Two chips: the odd chip rides Q.
	w2 := m.ModulateChips([]byte{0, 1})
	if imag(w2[2*SamplesPerChip]) < 0.99 {
		t.Fatalf("odd-chip peak %v, want ≈ 1", w2[2*SamplesPerChip])
	}
	if real(w2[SamplesPerChip]) > -0.99 {
		t.Fatalf("chip value 0 must map to −1, got %v", real(w2[SamplesPerChip]))
	}
}

func TestModulateHalfSineContinuity(t *testing.T) {
	// Adjacent same-rail pulses join at zero crossings: the I rail envelope
	// |real| must dip to ~0 every 2 chips.
	m := NewModulator()
	w := m.ModulateChips([]byte{1, 1, 0, 0, 1, 1})
	for k := 0; k <= 6; k += 2 {
		idx := k * SamplesPerChip
		if idx < len(w) && math.Abs(real(w[idx])) > 1e-9 {
			t.Fatalf("I rail not zero at pulse boundary sample %d: %v", idx, w[idx])
		}
	}
}

func TestChipDecisionsCleanRoundTrip(t *testing.T) {
	m := NewModulator()
	rng := rand.New(rand.NewPCG(3, 4))
	chips := make([]byte, 256)
	for i := range chips {
		chips[i] = byte(rng.IntN(2))
	}
	w := m.ModulateChips(chips)
	got := ChipDecisions(w, len(chips))
	for i := range chips {
		if got[i] != chips[i] {
			t.Fatalf("chip %d = %d want %d", i, got[i], chips[i])
		}
	}
}

func TestChipDecisionsTruncatedWaveform(t *testing.T) {
	m := NewModulator()
	chips := []byte{1, 1, 1, 1}
	w := m.ModulateChips(chips)
	got := ChipDecisions(w[:SamplesPerChip+1], len(chips))
	if got[0] != 1 {
		t.Fatal("first chip should still decode")
	}
	for _, c := range got[1:] {
		if c != 0 {
			t.Fatal("missing samples must decide as zero")
		}
	}
}

func TestSoftChipsSignsMatchDecisions(t *testing.T) {
	m := NewModulator()
	chips := []byte{1, 0, 1, 1, 0, 0}
	w := m.ModulateChips(chips)
	soft := SoftChips(w, len(chips))
	hard := ChipDecisions(w, len(chips))
	for i := range chips {
		wantPos := hard[i] == 1
		if (soft[i] > 0) != wantPos {
			t.Fatalf("soft/hard mismatch at chip %d", i)
		}
	}
}

func TestEndToEndCleanLoopback(t *testing.T) {
	frame := &Frame{SeqNum: 42, Payload: DefaultPayload(32)}
	psdu, err := frame.BuildPSDU()
	if err != nil {
		t.Fatal(err)
	}
	ppdu, err := BuildPPDU(psdu)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModulator()
	w := m.ModulatePPDU(ppdu)
	nchips := len(ppdu.Bits) / BitsPerSymbol * ChipsPerSymbol
	bits := DespreadChips(ChipDecisions(w, nchips))
	raw := BitsToBytes(bits)
	// SHR(5) + PHR(1) then PSDU.
	gotPSDU := raw[6 : 6+ppdu.PSDULen]
	parsed, err := ParsePSDU(gotPSDU)
	if err != nil {
		t.Fatalf("clean loopback failed FCS: %v", err)
	}
	if parsed.SeqNum != 42 {
		t.Fatalf("seq = %d want 42", parsed.SeqNum)
	}
}

func TestEndToEndLoopbackWithNoise(t *testing.T) {
	// At 12 dB SNR the DSSS processing gain must still deliver the packet.
	frame := &Frame{SeqNum: 7, Payload: DefaultPayload(16)}
	psdu, _ := frame.BuildPSDU()
	ppdu, _ := BuildPPDU(psdu)
	m := NewModulator()
	w := m.ModulatePPDU(ppdu)
	rng := rand.New(rand.NewPCG(10, 20))
	noisy := dsp.AddAWGN(w, 12, rng)
	nchips := len(ppdu.Bits) / BitsPerSymbol * ChipsPerSymbol
	bits := DespreadChips(ChipDecisions(noisy, nchips))
	raw := BitsToBytes(bits)
	parsed, err := ParsePSDU(raw[6 : 6+ppdu.PSDULen])
	if err != nil {
		t.Fatalf("12 dB loopback failed: %v", err)
	}
	if parsed.SeqNum != 7 {
		t.Fatalf("seq = %d want 7", parsed.SeqNum)
	}
}

func TestNormalizedSyncPeakCleanSignal(t *testing.T) {
	refs := NewReferenceWaveforms()
	frame := &Frame{SeqNum: 1, Payload: DefaultPayload(8)}
	psdu, _ := frame.BuildPSDU()
	ppdu, _ := BuildPPDU(psdu)
	w := refs.Modulator().ModulatePPDU(ppdu)
	peak, lag := refs.NormalizedSyncPeak(w, 8)
	if lag != 0 {
		t.Fatalf("lag = %d want 0", lag)
	}
	if peak < 0.95 {
		t.Fatalf("clean sync peak %v, want ≥ 0.95", peak)
	}
}

func TestNormalizedSyncPeakFindsDelay(t *testing.T) {
	refs := NewReferenceWaveforms()
	frame := &Frame{SeqNum: 1, Payload: DefaultPayload(8)}
	psdu, _ := frame.BuildPSDU()
	ppdu, _ := BuildPPDU(psdu)
	w := refs.Modulator().ModulatePPDU(ppdu)
	delayed := append(make([]complex128, 5), w...)
	_, lag := refs.NormalizedSyncPeak(delayed, 16)
	if lag != 5 {
		t.Fatalf("lag = %d want 5", lag)
	}
}

func TestNormalizedSyncPeakDropsWithNoise(t *testing.T) {
	refs := NewReferenceWaveforms()
	frame := &Frame{SeqNum: 1, Payload: DefaultPayload(8)}
	psdu, _ := frame.BuildPSDU()
	ppdu, _ := BuildPPDU(psdu)
	w := refs.Modulator().ModulatePPDU(ppdu)
	rng := rand.New(rand.NewPCG(5, 6))
	noisy := dsp.AddAWGN(w, -10, rng)
	cleanPeak, _ := refs.NormalizedSyncPeak(w, 0)
	noisyPeak, _ := refs.NormalizedSyncPeak(noisy, 0)
	if noisyPeak >= cleanPeak {
		t.Fatalf("noisy peak %v should be below clean peak %v", noisyPeak, cleanPeak)
	}
}

func TestNormalizedSyncPeakShortInput(t *testing.T) {
	refs := NewReferenceWaveforms()
	peak, lag := refs.NormalizedSyncPeak([]complex128{1, 2}, 4)
	if peak != 0 || lag != 0 {
		t.Fatal("short input must return zero peak")
	}
}

// accumulateChips is the modulation loop ModulateChips ran before it
// wrote into a caller's buffer: a fresh zeroed waveform with every chip's
// half-sine pulse added onto its rail. It is the reference
// ModulateChipsInto must reproduce bit for bit.
func accumulateChips(m *Modulator, chips []byte) []complex128 {
	out := make([]complex128, WaveformLen(len(chips)))
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

// TestModulateChipsIntoMatchesAccumulate regenerates every sequence
// number's PPDU waveform at three PSDU lengths into one reused buffer,
// dirtied between calls, and compares each sample's bits against the
// reference loop, so a −0 where the reference has +0 fails too. The
// lengths run long, short, medium so the buffer both shrinks and grows.
func TestModulateChipsIntoMatchesAccumulate(t *testing.T) {
	m := NewModulator()
	var buf []complex128
	for _, psduLen := range []int{127, 24, 64} {
		for seq := 0; seq < 256; seq++ {
			frame := &Frame{SeqNum: byte(seq), Payload: DefaultPayload(psduLen)}
			psdu, err := frame.BuildPSDU()
			if err != nil {
				t.Fatal(err)
			}
			ppdu, err := BuildPPDU(psdu)
			if err != nil {
				t.Fatal(err)
			}
			chips := SpreadBits(ppdu.Bits)
			want := accumulateChips(m, chips)
			dirty := buf[:cap(buf)]
			for i := range dirty {
				dirty[i] = complex(math.Copysign(0, -1), math.NaN())
			}
			got := m.ModulateChipsInto(buf, chips)
			if len(got) != len(want) {
				t.Fatalf("psdu %d seq %d: %d samples, want %d", psduLen, seq, len(got), len(want))
			}
			if cap(buf) >= len(want) && &got[0] != &buf[0] {
				t.Fatalf("psdu %d seq %d: a buffer of capacity %d was not reused for %d samples", psduLen, seq, cap(buf), len(want))
			}
			for i := range want {
				if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
					math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
					t.Fatalf("psdu %d seq %d sample %d: %v, want %v", psduLen, seq, i, got[i], want[i])
				}
			}
			buf = got
		}
	}
	if got := m.ModulateChipsInto(buf, nil); len(got) != 0 {
		t.Fatalf("no chips gave %d samples", len(got))
	}
}
