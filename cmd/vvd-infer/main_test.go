package main

import (
	"path/filepath"
	"strings"
	"testing"

	"vvd/internal/dataset"
	"vvd/internal/store"
)

// TestReadSetRange checks that -set selects exactly one stored set and that
// an index outside the campaign is an error, not an index panic.
func TestReadSetRange(t *testing.T) {
	cfg := dataset.DefaultConfig()
	cfg.Sets, cfg.PacketsPerSet, cfg.PSDULen = 3, 2, 24
	cfg.RenderImages = false
	c, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "c.bin")
	if err := store.WriteAtomic(path, c.Save); err != nil {
		t.Fatal(err)
	}
	campaign, set, err := readSet(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if set.Index != 2 || len(set.Packets) != 2 || len(campaign.Sets[0].Packets) != 0 {
		t.Fatalf("set %d with %d packets (set 1 holds %d)", set.Index, len(set.Packets), len(campaign.Sets[0].Packets))
	}
	for _, id := range []int{0, -1, 4} {
		if _, _, err := readSet(path, id); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("-set %d: err = %v, want an out-of-range error", id, err)
		}
	}
}
