package dataset

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// loadCampaign decodes every stored set, the way vvd-train and vvd-eval
// read a whole campaign.
func loadCampaign(r io.Reader) (*Campaign, error) {
	cr, err := OpenCampaign(r)
	if err != nil {
		return nil, err
	}
	return cr.ReadSets(nil)
}

func TestCampaignSaveLoadRoundTrip(t *testing.T) {
	orig, err := Generate(smallConfig())
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
	if loaded.Cfg.Sets != orig.Cfg.Sets || loaded.Cfg.PSDULen != orig.Cfg.PSDULen {
		t.Fatalf("config mismatch: %+v", loaded.Cfg)
	}
	if len(loaded.Sets) != len(orig.Sets) {
		t.Fatalf("sets = %d", len(loaded.Sets))
	}
	for si := range orig.Sets {
		for ki := range orig.Sets[si].Packets {
			a := orig.Sets[si].Packets[ki]
			b := loaded.Sets[si].Packets[ki]
			if a.Pos != b.Pos || a.SeqNum != b.SeqNum || a.LinkSeed != b.LinkSeed ||
				a.PreambleDetected != b.PreambleDetected {
				t.Fatalf("packet %d/%d metadata mismatch", si, ki)
			}
			for i := range a.Perfect {
				if a.Perfect[i] != b.Perfect[i] || a.PerfectAligned[i] != b.PerfectAligned[i] { //vvdlint:bitexact -- store round-trip and regeneration are bit-identical by format contract
					t.Fatalf("packet %d/%d estimates mismatch", si, ki)
				}
			}
			for lag := ImageLag(0); lag < numLags; lag++ {
				if len(a.Images[lag]) != len(b.Images[lag]) {
					t.Fatalf("packet %d/%d image lag %d length mismatch", si, ki, lag)
				}
				for i := range a.Images[lag] {
					if a.Images[lag][i] != b.Images[lag][i] { //vvdlint:bitexact -- store round-trip and regeneration are bit-identical by format contract
						t.Fatalf("packet %d/%d image pixel mismatch", si, ki)
					}
				}
			}
		}
	}
	// The loaded campaign must regenerate identical receptions.
	_, _, _, recA, err := orig.Reception(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, recB, err := loaded.Reception(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recA.Waveform {
		if recA.Waveform[i] != recB.Waveform[i] { //vvdlint:bitexact -- store round-trip and regeneration are bit-identical by format contract
			t.Fatal("loaded campaign regenerates different waveforms")
		}
	}
}

func TestCampaignSaveLoadWithoutImages(t *testing.T) {
	cfg := smallConfig()
	cfg.RenderImages = false
	orig, err := Generate(cfg)
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
	if loaded.Sets[0].Packets[0].Images[LagCurrent] != nil {
		t.Fatal("images materialized from nothing")
	}
}

func TestLoadCampaignGarbage(t *testing.T) {
	for _, tc := range []struct {
		name    string
		data    []byte
		wantErr string // substring the error must carry; "" accepts any error
	}{
		{"garbage", []byte{1, 2, 3}, ""},
		{"zero blob", make([]byte, 64), ""},
		{"v1 magic", append([]byte{0x43, 0x44, 0x56, 0x56}, bytes.Repeat([]byte{0xa5}, 60)...), "v1"},
	} {
		_, err := loadCampaign(bytes.NewReader(tc.data))
		if err == nil {
			t.Fatalf("%s accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestLoadCampaignTruncated(t *testing.T) {
	orig, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := loadCampaign(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Fatal("truncated campaign accepted")
	}
}
