package dataset

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"strings"
	"testing"
)

// FuzzOpenCampaign fuzzes the campaign store decoder over mutated bytes:
// whatever the input, OpenCampaign and ReadSets must either succeed or
// return an error — never panic, and never allocate beyond the decoder's
// sanity bounds (every length field is checked against its limit and the
// remaining payload before allocation). The committed seed corpus under
// testdata/fuzz covers the readable v3 layout plus retired v1 and v2 files
// that must be rejected; f.Add seeds the readable shapes plus truncations
// and flips so a fresh checkout fuzzes the interesting region immediately.
func FuzzOpenCampaign(f *testing.F) {
	for _, p := range []string{
		"testdata/campaign_v3.bin",
		"testdata/campaign_v3_single.bin",
	} {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/3])
	}
	cfg := DefaultConfig()
	cfg.Sets = 2
	cfg.PacketsPerSet = 3
	cfg.PSDULen = 24
	cfg.Seed = 13
	cfg.RenderImages = false
	cfg.Occupants = 3
	cfg.Scenario = "fuzz"
	c, err := Generate(cfg)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		f.Fatal(err)
	}
	v3 := buf.Bytes()
	f.Add(v3)
	f.Add(v3[:len(v3)-7])
	for _, pos := range []int{4, 8, 40, len(v3) / 2, len(v3) - 9} {
		mut := append([]byte(nil), v3...)
		mut[pos] ^= 0x41
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Add([]byte("VVD2"))
	f.Add(truncatedOccupantBlock(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := OpenCampaign(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(data) >= 4 && binary.LittleEndian.Uint32(data) == campaignMagicV1 {
			t.Fatal("retired v1 campaign accepted")
		}
		if len(data) >= 8 && binary.LittleEndian.Uint32(data[4:]) == retiredLayoutVersion {
			t.Fatal("retired v2 campaign accepted")
		}
		// The header parsed: the rest of the stream must decode or error
		// cleanly too.
		r.ReadSets(nil)
	})
}

// truncatedOccupantBlock builds a v3 stream whose set block passes the CRC
// but lies in its occupant count: the packet claims 50 extra occupants while
// only one coordinate follows. Plain truncations die at the length/CRC
// checks before the occupant decoder ever runs; this shape is the one that
// reaches cursor.others with a hostile count, which is exactly the
// bounds-check the decoder must not trust the count without.
func truncatedOccupantBlock(tb testing.TB) []byte {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.Sets = 1
	cfg.PacketsPerSet = 1
	cfg.PSDULen = 24
	cfg.Seed = 7
	cfg.RenderImages = false
	cfg.Occupants = 2
	c, err := Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	v3 := buf.Bytes()
	// Header: magic + version + configJSON length + configJSON + sets + CRC.
	cfgLen := int(binary.LittleEndian.Uint32(v3[8:12]))
	hdrLen := 4 + 4 + 4 + cfgLen + 4 + 4

	// Forge the set block: valid 57-byte packet prefix (index, seq, link
	// seed, flags, five float64s), then an occupant count the remaining
	// payload cannot satisfy.
	p := &c.Sets[0].Packets[0]
	b := appendU32(nil, 1) // set index
	b = appendU32(b, 1)    // one packet
	b = appendU64(b, 0)    // payload length, patched below
	b = appendU32(b, uint32(p.Index))
	b = appendU32(b, uint32(p.SeqNum))
	b = appendU64(b, p.LinkSeed)
	b = append(b, 1) // flags: preamble detected
	for _, f := range []float64{p.Time, p.Pos.X, p.Pos.Y, p.Pos.Z, p.SyncPeak} {
		b = appendF64(b, f)
	}
	b = appendU32(b, 50) // claims 50 extra occupants (within maxOccupants)...
	b = appendF64(b, 1)  // ...but only 8 of the 1200 coordinate bytes follow
	binary.LittleEndian.PutUint64(b[8:], uint64(len(b)-16))
	b = appendU32(b, crc32.Checksum(b, castagnoli))
	return append(append([]byte(nil), v3[:hdrLen]...), b...)
}

// TestOpenCampaignRejectsTruncatedOccupantBlock pins the regression the
// corpus entry of the same name guards: a CRC-valid set block whose occupant
// count exceeds the remaining payload must fail with the short-payload
// error, not panic or over-allocate.
func TestOpenCampaignRejectsTruncatedOccupantBlock(t *testing.T) {
	data := truncatedOccupantBlock(t)
	r, err := OpenCampaign(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("header must parse (the forgery is in the set block): %v", err)
	}
	_, err = r.ReadSets(nil)
	if err == nil {
		t.Fatal("decoder accepted a set whose occupant block is truncated")
	}
	if !strings.Contains(err.Error(), "payload shorter") {
		t.Fatalf("want the short-payload error, got: %v", err)
	}
}
