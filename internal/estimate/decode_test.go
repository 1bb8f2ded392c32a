package estimate

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"vvd/internal/channel"
	"vvd/internal/dsp"
	"vvd/internal/phy"
	"vvd/internal/room"
)

// The reference decode chain: every stage materializes a whole waveform —
// equalize the full convolution, rotate it, matched-filter every sample,
// then sample the chip instants. Decode fuses and windows these stages;
// the tests below hold it to this chain bit for bit.

// refEqualize keeps n samples of the full convolution c*rx from delay on.
func refEqualize(rx, c []complex128, delay, n int) []complex128 {
	full := dsp.Convolve(rx, c)
	out := make([]complex128, n)
	for i := 0; i < n; i++ {
		if idx := i + delay; idx < len(full) {
			out[i] = full[idx]
		}
	}
	return out
}

// refMatchedFilter correlates x with the half-sine chip pulse at every
// sample, normalized so pulse peaks keep unit amplitude.
func refMatchedFilter(x []complex128) []complex128 {
	pulse := make([]float64, 2*phy.SamplesPerChip)
	var energy float64
	for k := range pulse {
		pulse[k] = math.Sin(math.Pi * float64(k) / float64(len(pulse)))
		energy += pulse[k] * pulse[k]
	}
	out := make([]complex128, len(x))
	half := len(pulse) / 2
	for i := range x {
		var acc complex128
		for m, pv := range pulse {
			if idx := i + m - half; idx >= 0 && idx < len(x) {
				acc += x[idx] * complex(pv, 0)
			}
		}
		out[i] = acc / complex(energy, 0)
	}
	return out
}

// refDecode is Decode written as the reference chain.
func refDecode(r *Receiver, rx []complex128, ppdu *phy.PPDU, txChips []byte, h []complex128) Result {
	var res Result
	nchips := len(ppdu.Bits) / phy.BitsPerSymbol * phy.ChipsPerSymbol
	txLen := phy.WaveformLen(nchips)
	var aligned []complex128
	if h == nil {
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
			return res
		}
		aligned = refEqualize(rx, c, delay, txLen)
	}
	if !r.Cfg.SkipPhaseCorrection {
		n := min(len(r.shrKnown), len(aligned))
		theta := MeanPhaseShift(aligned[:n], r.shrKnown[:n])
		res.Phase = theta
		aligned = dsp.Rotate(aligned, -theta)
	}
	aligned = refMatchedFilter(aligned)
	chips := phy.ChipDecisions(aligned, nchips)
	headerChips := (len(ppdu.Bits) - ppdu.PSDUBits) / phy.BitsPerSymbol * phy.ChipsPerSymbol
	res.PSDUChips = nchips - headerChips
	for i := headerChips; i < nchips && i < len(txChips); i++ {
		if chips[i] != txChips[i] {
			res.ChipErrors++
		}
	}
	var bits []byte
	if r.Cfg.SoftDespreading {
		bits = phy.DespreadSoft(phy.SoftChips(aligned, nchips))
	} else {
		bits = phy.DespreadChips(chips)
	}
	if len(bits)%8 != 0 {
		return res
	}
	raw := phy.BitsToBytes(bits)
	hdr := phy.PreambleBytes + 2
	if len(raw) < hdr+ppdu.PSDULen {
		return res
	}
	if _, err := phy.ParsePSDU(raw[hdr : hdr+ppdu.PSDULen]); err == nil {
		res.PacketOK = true
	}
	return res
}

// decodeCase is one CFO-corrected reception plus the estimates every
// technique family hands Decode.
type decodeCase struct {
	name    string
	ppdu    *phy.PPDU
	txChips []byte
	rx      []complex128
	hs      map[string][]complex128
}

// decodeCases builds receptions at PSDU lengths 24 and 127, at the
// default impairments and at a low SNR that makes chip errors, with four
// estimates each: none (Standard Decoding), the whole-packet LS estimate
// (Perfect), the SHR estimate (Preamble) and a phase-blind geometry CIR
// with a small error, as an image-based VVD estimate is.
func decodeCases(t *testing.T) []decodeCase {
	t.Helper()
	r := NewReceiver(DefaultConfig())
	g := channel.NewGeometry(room.DefaultLab(), phy.Wavelength)
	m := channel.NewModel(g, phy.SampleRate)
	var cases []decodeCase
	for _, psduLen := range []int{24, 127} {
		for i, imp := range []channel.Impairments{channel.DefaultImpairments(), {SNRdB: 4, PhaseStdDev: 1}} {
			frame := &phy.Frame{SeqNum: byte(psduLen + i), Payload: phy.DefaultPayload(psduLen)}
			psdu, err := frame.BuildPSDU()
			if err != nil {
				t.Fatal(err)
			}
			ppdu, err := phy.BuildPPDU(psdu)
			if err != nil {
				t.Fatal(err)
			}
			chips := phy.SpreadBits(ppdu.Bits)
			wave := phy.NewModulator().ModulateChips(chips)
			human := clearHuman()
			if i == 1 {
				human = blockedHuman()
			}
			seed := uint64(100*psduLen + i)
			rec := channel.NewLink(m, imp, rand.New(rand.NewPCG(seed, seed+1))).Transmit(wave, human)
			rx, _ := r.CorrectCFO(rec.Waveform)
			perfect, err := r.EstimateGroundTruth(rx, wave)
			if err != nil {
				t.Fatal(err)
			}
			preamble, err := r.EstimatePreamble(rx)
			if err != nil {
				t.Fatal(err)
			}
			vvd := m.CIR(human)
			rng := rand.New(rand.NewPCG(seed, 7))
			for k := range vvd {
				vvd[k] += complex(rng.NormFloat64(), rng.NormFloat64()) * 0.05 * complex(math.Sqrt(sq(vvd[k])), 0)
			}
			cases = append(cases, decodeCase{
				name: fmt.Sprintf("psdu%d/imp%d", psduLen, i), ppdu: ppdu, txChips: chips, rx: rx,
				hs: map[string][]complex128{"nil": nil, "Perfect": perfect, "PreambleEst": preamble, "VVD": vvd},
			})
		}
	}
	return cases
}

// decodeConfigs are the receiver settings the chain branches on: phase
// correction on and off, hard and soft despreading, and an equalizer on
// the direct and on the FFT convolution path.
func decodeConfigs() map[string]Config {
	out := map[string]Config{}
	for _, taps := range []int{41, dsp.FFTMinOverlap + 3} {
		for _, skip := range []bool{false, true} {
			for _, soft := range []bool{false, true} {
				cfg := DefaultConfig()
				cfg.EqTaps, cfg.SkipPhaseCorrection, cfg.SoftDespreading = taps, skip, soft
				out[fmt.Sprintf("taps%d/skipPhase=%v/soft=%v", taps, skip, soft)] = cfg
			}
		}
	}
	return out
}

// TestDecodeMatchesReferenceChain holds Decode to the reference chain:
// the same Result, bit for bit (Phase and SyncPeak included), for every
// estimate kind and receiver setting, and rx left as it was.
func TestDecodeMatchesReferenceChain(t *testing.T) {
	cases := decodeCases(t)
	errs := 0
	for cfgName, cfg := range decodeConfigs() {
		r := NewReceiver(cfg)
		for _, dc := range cases {
			for hName, h := range dc.hs {
				before := slices.Clone(dc.rx)
				got := r.Decode(dc.rx, dc.ppdu, dc.txChips, h)
				if !slices.Equal(dc.rx, before) {
					t.Fatalf("%s %s h=%s: Decode wrote to rx", cfgName, dc.name, hName)
				}
				want := refDecode(r, dc.rx, dc.ppdu, dc.txChips, h)
				if got != want {
					t.Fatalf("%s %s h=%s: Decode %+v, reference %+v", cfgName, dc.name, hName, got, want)
				}
				errs += got.ChipErrors
			}
		}
	}
	if errs == 0 {
		t.Fatal("no case made a chip error: the comparison never saw a wrong decision")
	}
}

// TestEqualizeMatchesReference pins the windowed equalizer sample by
// sample against the full convolution, including windows that run past
// either end of rx and receptions shorter than the equalizer.
func TestEqualizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, tc := range []struct{ rxLen, taps, delay, n int }{
		{600, 41, 25, 590}, {600, 41, 0, 700}, {600, 41, 60, 650}, {30, 41, 25, 40},
		{41, 41, 20, 50}, {600, 131, 70, 600}, {100, 131, 70, 120}, {0, 41, 20, 10},
	} {
		rx, c := randSignal(rng, tc.rxLen), randSignal(rng, tc.taps)
		c[3] = 0 // a zero tap is skipped
		want := refEqualize(rx, c, tc.delay, tc.n)
		dst := make([]complex128, tc.n)
		for i := range dst {
			dst[i] = complex(math.NaN(), 1) // stale scratch must not leak through
		}
		if got := equalizeInto(dst, rx, c, tc.delay); !slices.Equal(got, want) {
			t.Fatalf("%+v: windowed equalizer differs from the full convolution", tc)
		}
	}
}

// TestMatchedChipsMatchesReference pins the fused rotation and matched
// filter against rotating, filtering every sample and sampling the chip
// instants, including chips whose peak lies past the waveform.
func TestMatchedChipsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	x := randSignal(rng, 1000)
	const nchips = 260 // the last chips fall beyond x
	rot := complex(math.Cos(0.7), -math.Sin(0.7))
	for _, rotate := range []bool{false, true} {
		in := x
		if rotate {
			in = dsp.Rotate(x, -0.7)
		}
		want := phy.SoftChips(refMatchedFilter(in), nchips)
		got := make([]float64, nchips)
		for i := range got {
			got[i] = math.NaN()
		}
		phy.MatchedChips(got, x, rot, rotate)
		if !slices.Equal(got, want) {
			t.Fatalf("rotate=%v: fused matched filter differs from the reference", rotate)
		}
	}
}

// TestDecodeAllocsIndependentOfPacketLength: Decode's buffers are pooled,
// so a 127-byte PSDU costs no more allocations than a 24-byte one — what
// remains is the equalizer design, whose size follows the estimate.
func TestDecodeAllocsIndependentOfPacketLength(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random, so allocation counts vary")
	}
	cases := decodeCases(t)
	r := NewReceiver(DefaultConfig())
	allocs := map[string]map[int]int{}
	for _, dc := range cases {
		for hName, h := range dc.hs {
			if allocs[hName] == nil {
				allocs[hName] = map[int]int{}
			}
			a := int(testing.AllocsPerRun(20, func() {
				r.Decode(dc.rx, dc.ppdu, dc.txChips, h)
			}))
			if prev, ok := allocs[hName][dc.ppdu.PSDULen]; ok && prev != a {
				t.Errorf("h=%s PSDU %d: %v and %v allocations for two receptions", hName, dc.ppdu.PSDULen, prev, a)
			}
			allocs[hName][dc.ppdu.PSDULen] = a
		}
	}
	for hName, byLen := range allocs {
		if byLen[24] != byLen[127] {
			t.Errorf("h=%s: %v allocations at PSDU 24, %v at PSDU 127", hName, byLen[24], byLen[127])
		}
	}
	if a := allocs["nil"][127]; a != 0 {
		t.Errorf("standard decoding allocates %v times per packet, want 0", a)
	}
}

// TestDecodeConcurrentSharedReception: decodes of one shared reception on
// several goroutines at once — as the evaluation's technique lanes run
// them — each match the sequential decode, and leave rx untouched.
func TestDecodeConcurrentSharedReception(t *testing.T) {
	dc := decodeCases(t)[1]
	r := NewReceiver(DefaultConfig())
	before := slices.Clone(dc.rx)
	names := []string{"nil", "Perfect", "PreambleEst", "VVD"}
	want := make([]Result, len(names))
	for i, name := range names {
		want[i] = r.Decode(dc.rx, dc.ppdu, dc.txChips, dc.hs[name])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				i := (g + rep) % len(names)
				if got := r.Decode(dc.rx, dc.ppdu, dc.txChips, dc.hs[names[i]]); got != want[i] {
					t.Errorf("goroutine %d h=%s: %+v, sequential %+v", g, names[i], got, want[i])
				}
			}
		}()
	}
	wg.Wait()
	if !slices.Equal(dc.rx, before) {
		t.Fatal("concurrent decodes wrote to the shared reception")
	}
}
