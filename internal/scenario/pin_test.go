package scenario_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"vvd/internal/dataset"
	"vvd/internal/scenario"
)

// appliedWorld is one pinned world: the scenario's name and the
// configuration it produces over tinyConfig.
type appliedWorld struct {
	Name   string
	Config dataset.Config
}

// pinnedWorlds builds every world TestApplyPinned pins, keyed
// "preset/<name>", "random/<seed>" and "grid/<cell>". presets lists the
// preset names to include.
func pinnedWorlds(t *testing.T, presets []string) map[string]appliedWorld {
	t.Helper()
	base := tinyConfig()
	out := map[string]appliedWorld{}
	for _, name := range presets {
		s, err := scenario.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		out["preset/"+name] = appliedWorld{s.Name, s.Apply(base)}
	}
	for seed := uint64(0); seed < 300; seed++ {
		s := scenario.Random(scenario.NewPCG(seed), scenario.DefaultBounds())
		out[fmt.Sprintf("random/%03d", seed)] = appliedWorld{s.Name, s.Apply(base)}
	}
	g := scenario.Grid{
		Rows: []scenario.Combinator{scenario.Occupancy(1), scenario.Occupancy(2)},
		Cols: []scenario.Combinator{scenario.SNR(7), scenario.SNR(25)},
	}
	for i, s := range g.Scenarios() {
		out[fmt.Sprintf("grid/%d", i)] = appliedWorld{s.Name, s.Apply(base)}
	}
	return out
}

// TestApplyPinned pins, field for field, the configuration every preset,
// the first 300 random draws and the 2×2 occupancy × SNR grid produce
// over tinyConfig, together with their names. It is the bit-exact bound on
// any rewrite of how scenarios are represented or composed. Regenerate
// after an intended change with
//
//	go test ./internal/scenario -run TestApplyPinned -update-golden
func TestApplyPinned(t *testing.T) {
	path := filepath.Join("testdata", "apply.json")
	if *updateGolden {
		data, err := json.MarshalIndent(pinnedWorlds(t, scenario.Names()), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]json.RawMessage{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	var presets []string
	for key := range want {
		if name, ok := strings.CutPrefix(key, "preset/"); ok {
			presets = append(presets, name)
		}
	}
	got := pinnedWorlds(t, presets)
	if len(got) != len(want) {
		t.Fatalf("built %d worlds, golden has %d", len(got), len(want))
	}
	keys := make([]string, 0, len(want))
	for key := range want {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		g, ok := got[key]
		if !ok {
			t.Fatalf("%s: not built", key)
		}
		gj, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		var wj bytes.Buffer
		if err := json.Compact(&wj, want[key]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gj, wj.Bytes()) {
			t.Errorf("%s drifted:\n got %s\nwant %s", key, gj, wj.Bytes())
		}
	}
}
