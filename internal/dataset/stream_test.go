package dataset

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata golden fixtures")

// fidelityConfig is the config class the retired v1 store could not
// round-trip, so the current store must: scripted trajectory plus a
// nonzero human scatter gain override.
func fidelityConfig() Config {
	cfg := smallConfig()
	cfg.Scripted = true
	cfg.HumanScatterGain = 0.4
	return cfg
}

func comparePackets(t *testing.T, orig, loaded *Campaign) {
	t.Helper()
	if len(loaded.Sets) != len(orig.Sets) {
		t.Fatalf("sets = %d, want %d", len(loaded.Sets), len(orig.Sets))
	}
	for si := range orig.Sets {
		a, b := orig.Sets[si], loaded.Sets[si]
		if a.Index != b.Index || len(a.Packets) != len(b.Packets) {
			t.Fatalf("set %d shape mismatch", si)
		}
		for ki := range a.Packets {
			if !reflect.DeepEqual(a.Packets[ki], b.Packets[ki]) {
				t.Fatalf("set %d packet %d mismatch", si, ki)
			}
		}
	}
}

func compareReception(t *testing.T, orig, loaded *Campaign, set, pkt int) {
	t.Helper()
	_, _, _, recA, err := orig.Reception(set, pkt)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, recB, err := loaded.Reception(set, pkt)
	if err != nil {
		t.Fatal(err)
	}
	if len(recA.Waveform) != len(recB.Waveform) {
		t.Fatal("regenerated waveform length differs")
	}
	for i := range recA.Waveform {
		if recA.Waveform[i] != recB.Waveform[i] { //vvdlint:bitexact -- store round-trip and regeneration are bit-identical by format contract
			t.Fatalf("regenerated waveforms differ at sample %d", i)
		}
	}
}

// TestV2RoundTripFullConfig pins the fidelity fix: a scripted,
// nonzero-scatter-gain campaign survives Save→Load with its complete
// Config and regenerates bit-identical receptions.
func TestV2RoundTripFullConfig(t *testing.T) {
	orig, err := Generate(fidelityConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadCampaign(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Cfg != orig.Cfg {
		t.Fatalf("config not preserved:\n got %+v\nwant %+v", loaded.Cfg, orig.Cfg)
	}
	if got := loaded.Geometry.HumanScatterGain; got != 0.4 {
		t.Fatalf("rebuilt geometry scatter gain = %v, want 0.4", got)
	}
	comparePackets(t, orig, loaded)
	compareReception(t, orig, loaded, 1, 2)
	compareReception(t, orig, loaded, 3, 0)
}

// goldenV3Config must stay frozen: testdata/campaign_v3.bin holds the
// scripted-mobility campaign it generates. The fixture was first written in
// the retired v1 format and converted to v3 by a load and Save, so the
// packets it pins have not changed since scripted mobility was introduced.
func goldenV3Config() Config {
	cfg := DefaultConfig()
	cfg.Sets = 2
	cfg.PacketsPerSet = 6
	cfg.PSDULen = 24
	cfg.Seed = 5
	cfg.RenderImages = false
	cfg.Scripted = true
	return cfg
}

// TestV3GoldenFixture decodes the committed v3 fixture and checks it
// against a freshly generated campaign — the guarantee that scripted
// mobility generation stays bit for bit as the codebase evolves, and that
// v3 files keep loading.
func TestV3GoldenFixture(t *testing.T) {
	path := filepath.Join("testdata", "campaign_v3.bin")
	cfg := goldenV3Config()
	want, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		var buf bytes.Buffer
		if err := want.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, buf.Len())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenCampaign(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if r.Version() != 3 {
		t.Fatalf("fixture version = %d, want 3", r.Version())
	}
	loaded, err := r.ReadSets(nil)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Cfg != cfg {
		t.Fatalf("fixture config = %+v, want %+v", loaded.Cfg, cfg)
	}
	comparePackets(t, want, loaded)
	compareReception(t, want, loaded, 2, 1)
}

func saveV2(t *testing.T, c *Campaign) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestStreamReadSetsSubset(t *testing.T) {
	orig, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenCampaign(bytes.NewReader(saveV2(t, orig)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Version() != 3 || r.NumSets() != len(orig.Sets) {
		t.Fatalf("header: version %d sets %d", r.Version(), r.NumSets())
	}
	if r.Config() != orig.Cfg {
		t.Fatalf("header config mismatch")
	}
	c, err := r.ReadSets(func(id int) bool { return id != 2 })
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Sets) != 3 {
		t.Fatalf("placeholder slice length %d", len(c.Sets))
	}
	if len(c.Sets[1].Packets) != 0 || c.Sets[1].Index != 2 {
		t.Fatal("skipped set should be an empty placeholder")
	}
	if !reflect.DeepEqual(c.Sets[0].Packets, orig.Sets[0].Packets) ||
		!reflect.DeepEqual(c.Sets[2].Packets, orig.Sets[2].Packets) {
		t.Fatal("kept sets mismatch")
	}
	// Receptions regenerate against the rebuilt environment.
	compareReception(t, orig, c, 3, 1)
}

func TestStreamShellEnvironment(t *testing.T) {
	orig, err := Generate(fidelityConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenCampaign(bytes.NewReader(saveV2(t, orig)))
	if err != nil {
		t.Fatal(err)
	}
	shell, err := r.ReadSets(func(id int) bool { return id == 2 })
	if err != nil {
		t.Fatal(err)
	}
	if shell.Geometry.HumanScatterGain != orig.Geometry.HumanScatterGain { //vvdlint:bitexact -- store round-trip and regeneration are bit-identical by format contract
		t.Fatal("shell geometry differs")
	}
	if !reflect.DeepEqual(shell.RefCIR, orig.RefCIR) {
		t.Fatal("shell reference CIR differs")
	}
	if len(shell.Sets) != len(orig.Sets) {
		t.Fatal("shell placeholder count differs")
	}
	// A streamed set decodes packets that regenerate identically via the
	// shell, without the other sets ever being materialized.
	if len(shell.Sets[0].Packets) != 0 || len(shell.Sets[2].Packets) != 0 {
		t.Fatal("sets the filter skipped were decoded")
	}
	set := &shell.Sets[1]
	_, _, _, recA, err := orig.Reception(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, _, recB, err := shell.ReceptionPacket(&set.Packets[4])
	if err != nil {
		t.Fatal(err)
	}
	for i := range recA.Waveform {
		if recA.Waveform[i] != recB.Waveform[i] { //vvdlint:bitexact -- store round-trip and regeneration are bit-identical by format contract
			t.Fatal("shell reception differs")
		}
	}
}

// TestV2CorruptionDetected flips bytes across the whole file — header,
// config, set headers, payloads, checksums — and requires every flip to be
// rejected: the v2 layout leaves no byte uncovered by a CRC.
func TestV2CorruptionDetected(t *testing.T) {
	cfg := smallConfig()
	cfg.RenderImages = false
	orig, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blob := saveV2(t, orig)
	step := len(blob)/512 + 1
	for pos := 0; pos < len(blob); pos += step {
		mut := append([]byte(nil), blob...)
		mut[pos] ^= 0x5a
		if _, err := loadCampaign(bytes.NewReader(mut)); err == nil {
			t.Fatalf("byte flip at offset %d of %d went undetected", pos, len(blob))
		}
	}
}

// TestV2TruncationDetected cuts the stream at assorted points; every
// prefix must be rejected.
func TestV2TruncationDetected(t *testing.T) {
	cfg := smallConfig()
	cfg.RenderImages = false
	orig, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blob := saveV2(t, orig)
	cuts := []int{0, 1, 3, 7, 11, 40, len(blob) / 3, len(blob) / 2, len(blob) - 5, len(blob) - 1}
	for _, cut := range cuts {
		if _, err := loadCampaign(bytes.NewReader(blob[:cut])); err == nil {
			t.Fatalf("truncation to %d of %d bytes went undetected", cut, len(blob))
		}
	}
}

func TestV2VersionGate(t *testing.T) {
	// A header claiming a future version must be refused with a version
	// message, not misparsed.
	hdr := appendU32(nil, campaignMagicV2)
	hdr = appendU32(hdr, campaignVersion+1)
	hdr = appendU32(hdr, 2)
	hdr = append(hdr, '{', '}')
	hdr = appendU32(hdr, 0)
	hdr = appendU32(hdr, 0xdeadbeef)
	_, err := OpenCampaign(bytes.NewReader(hdr))
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", campaignVersion+1)) {
		t.Fatalf("expected version error, got %v", err)
	}
	// Version 1 inside the VVD2 magic family is equally unreadable.
	hdr = appendU32(nil, campaignMagicV2)
	hdr = appendU32(hdr, 1)
	hdr = appendU32(hdr, 2)
	hdr = append(hdr, '{', '}')
	hdr = appendU32(hdr, 0)
	hdr = appendU32(hdr, 0xdeadbeef)
	if _, err := OpenCampaign(bytes.NewReader(hdr)); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("expected version error, got %v", err)
	}
	// Version 2, the retired layout without extra-occupant positions, is
	// refused by name, the way the retired v1 magic is.
	hdr = appendU32(nil, campaignMagicV2)
	hdr = appendU32(hdr, 2)
	hdr = appendU32(hdr, 2)
	hdr = append(hdr, '{', '}')
	hdr = appendU32(hdr, 0)
	hdr = appendU32(hdr, 0xdeadbeef)
	_, err = OpenCampaign(bytes.NewReader(hdr))
	if err == nil || !strings.Contains(err.Error(), "retired v2 layout") || !strings.Contains(err.Error(), "vvd-dataset") {
		t.Fatalf("expected retired-v2 error, got %v", err)
	}
}

// goldenV2Config must stay frozen: testdata/campaign_v3_single.bin holds
// the packets the version-2 codec wrote before multi-occupant generation
// existed, decoded and re-saved in the v3 layout, and is never regenerated.
func goldenV2Config() Config {
	cfg := DefaultConfig()
	cfg.Sets = 2
	cfg.PacketsPerSet = 6
	cfg.PSDULen = 24
	cfg.Seed = 9
	cfg.RenderImages = false
	cfg.HumanScatterGain = 0.3
	return cfg
}

// TestSingleOccupantGoldenFixture decodes the committed single-occupant
// fixture and checks it against a freshly generated campaign of the same
// configuration: single-occupant generation reproduces the
// pre-multi-occupant packets bit for bit (the acceptance bound of the
// occupancy generalization).
func TestSingleOccupantGoldenFixture(t *testing.T) {
	path := filepath.Join("testdata", "campaign_v3_single.bin")
	cfg := goldenV2Config()
	want, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenCampaign(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if r.Version() != 3 {
		t.Fatalf("fixture version = %d, want 3", r.Version())
	}
	loaded, err := r.ReadSets(nil)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Cfg != cfg {
		t.Fatalf("fixture config = %+v, want %+v", loaded.Cfg, cfg)
	}
	comparePackets(t, want, loaded)
	compareReception(t, want, loaded, 2, 1)
}

func TestWriterMisuse(t *testing.T) {
	cfg := smallConfig()
	cfg.Sets, cfg.PacketsPerSet = 2, 2
	cfg.RenderImages = false
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, c.Cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSet(&Set{Index: 0}); err == nil {
		t.Fatal("index 0 accepted")
	}
	if err := w.WriteSet(&c.Sets[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close with a missing declared set accepted")
	}

	buf.Reset()
	w, err = NewWriter(&buf, c.Cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSet(&c.Sets[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSet(&c.Sets[1]); err == nil {
		t.Fatal("extra set beyond declared count accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSet(&c.Sets[1]); err == nil {
		t.Fatal("WriteSet after Close accepted")
	}
}

// ---------------------------------------------------------------------------
// benchmarks: the Save/Load perf contract of the v2 store

var (
	benchOnce sync.Once
	benchCamp *Campaign
	benchV2   []byte
	benchErr  error
)

// benchCampaign builds a mid-size default-shape campaign (depth images on)
// shared by every persistence benchmark.
func benchCampaign(b *testing.B) (*Campaign, []byte) {
	b.Helper()
	benchOnce.Do(func() {
		cfg := DefaultConfig()
		cfg.Sets = 4
		cfg.PacketsPerSet = 40
		cfg.PSDULen = 64
		cfg.Seed = 11
		benchCamp, benchErr = Generate(cfg)
		if benchErr != nil {
			return
		}
		var v2 bytes.Buffer
		if benchErr = benchCamp.Save(&v2); benchErr != nil {
			return
		}
		benchV2 = v2.Bytes()
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchCamp, benchV2
}

func BenchmarkCampaignSave(b *testing.B) {
	c, v2 := benchCampaign(b)
	b.SetBytes(int64(len(v2)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Save(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCampaignLoad(b *testing.B) {
	_, v2 := benchCampaign(b)
	b.SetBytes(int64(len(v2)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := loadCampaign(bytes.NewReader(v2)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignInspect measures the decode-free verification path:
// header parse plus CRC sweep of every set payload.
func BenchmarkCampaignInspect(b *testing.B) {
	_, v2 := benchCampaign(b)
	b.SetBytes(int64(len(v2)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := OpenCampaign(bytes.NewReader(v2))
		if err != nil {
			b.Fatal(err)
		}
		infos, err := r.Inspect()
		if err != nil {
			b.Fatal(err)
		}
		for _, si := range infos {
			if !si.CRCOK {
				b.Fatal("checksum mismatch")
			}
		}
	}
}

func TestWriterRejectsDuplicateIndex(t *testing.T) {
	cfg := smallConfig()
	cfg.Sets, cfg.PacketsPerSet = 2, 2
	cfg.RenderImages = false
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, c.Cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSet(&c.Sets[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSet(&c.Sets[0]); err == nil {
		t.Fatal("duplicate set index accepted")
	}
}

func TestV2RejectsNaNCIR(t *testing.T) {
	cfg := smallConfig()
	cfg.Sets, cfg.PacketsPerSet = 1, 2
	cfg.RenderImages = false
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Sets[0].Packets[1].Perfect[0] = complex(math.NaN(), 0)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	_, err = loadCampaign(&buf)
	if err == nil || !strings.Contains(err.Error(), "NaN") {
		t.Fatalf("expected NaN rejection, got %v", err)
	}
}
