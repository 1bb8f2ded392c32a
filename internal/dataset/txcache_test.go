package dataset

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"vvd/internal/channel"
	"vvd/internal/phy"
)

// TestTxCacheRetainsNoWaveform regenerates every packet of a small
// campaign — sequentially through Reception and concurrently through
// ReceptionPacket's pooled buffers — and checks that both reproduce the
// generated packets bit for bit while the transmit cache keeps no slice as
// long as a transmit waveform. Run under -race in CI it also exercises the
// pooled regeneration buffers.
func TestTxCacheRetainsNoWaveform(t *testing.T) {
	cfg := smallConfig()
	cfg.RenderImages = false
	cfg.Workers = 2
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mod := phy.NewModulator()
	type regen struct {
		set, idx int
		rec      *channel.Reception
	}
	var want []regen
	for si, s := range c.Sets {
		for ki := range s.Packets {
			pkt := &s.Packets[ki]
			_, wave, _, rec, err := c.Reception(si+1, ki)
			if err != nil {
				t.Fatal(err)
			}
			_, built, _, err := BuildTx(mod, pkt.SeqNum, cfg.PSDULen)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(wave, built) {
				t.Fatalf("set %d packet %d: Reception's waveform differs from BuildTx", si+1, ki)
			}
			if !sameBits(rec.TrueCIR, pkt.TrueCIR) {
				t.Fatalf("set %d packet %d: regenerated CIR differs from the generated one", si+1, ki)
			}
			tv, err := c.tx.get(pkt.SeqNum)
			if err != nil {
				t.Fatal(err)
			}
			rxc, _ := c.Receiver.CorrectCFO(rec.Waveform)
			perfect, err := tv.gtSolver.Estimate(wave, rxc)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(perfect, pkt.Perfect) {
				t.Fatalf("set %d packet %d: ground truth from the regenerated waveform differs from the generated one", si+1, ki)
			}
			want = append(want, regen{si, ki, rec})
		}
	}

	var wg sync.WaitGroup
	errs := make(chan string, len(want))
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(want); i += 4 {
				r := want[i]
				_, _, rec, err := c.ReceptionPacket(&c.Sets[r.set].Packets[r.idx])
				if err != nil {
					errs <- err.Error()
					return
				}
				if !sameBits(rec.Waveform, r.rec.Waveform) {
					errs <- "concurrent ReceptionPacket differs from Reception"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	cached := 0
	for seq := range c.tx.variants {
		v := c.tx.variants[seq].Load()
		if v == nil {
			continue
		}
		cached++
		limit := phy.WaveformLen(len(v.chips))
		if path, n := longestSlice(reflect.ValueOf(v), "txVariant", map[uintptr]bool{}); n >= limit {
			t.Fatalf("seq %d: %s holds %d elements, a waveform has %d", seq, path, n, limit)
		}
	}
	if cached == 0 {
		t.Fatal("the campaign cached no transmit variant")
	}
}

// TestReceptionPacketNeedsShell checks that a hand-built Campaign, which
// has no transmit cache, is refused rather than regenerated.
func TestReceptionPacketNeedsShell(t *testing.T) {
	c := &Campaign{Cfg: smallConfig()}
	if _, _, _, err := c.ReceptionPacket(&Packet{}); err == nil {
		t.Fatal("a Campaign without a transmit cache regenerated a packet")
	}
}

// longestSlice walks everything reachable from v and returns the longest
// slice or array it finds, with its path.
func longestSlice(v reflect.Value, path string, seen map[uintptr]bool) (string, int) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return path, 0
		}
		if v.Kind() == reflect.Pointer {
			if seen[v.Pointer()] {
				return path, 0
			}
			seen[v.Pointer()] = true
		}
		return longestSlice(v.Elem(), path, seen)
	case reflect.Struct:
		best, n := path, 0
		for i := 0; i < v.NumField(); i++ {
			if p, m := longestSlice(v.Field(i), path+"."+v.Type().Field(i).Name, seen); m > n {
				best, n = p, m
			}
		}
		return best, n
	case reflect.Slice, reflect.Array:
		best, n := path, v.Len()
		for i := 0; i < v.Len(); i++ {
			if p, m := longestSlice(v.Index(i), path+"[]", seen); m > n {
				best, n = p, m
			}
		}
		return best, n
	}
	return path, 0
}

func sameBits(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}
