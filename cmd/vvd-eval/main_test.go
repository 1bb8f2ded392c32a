package main

import (
	"maps"
	"slices"
	"strings"
	"testing"

	"vvd/internal/experiments"
	"vvd/internal/scenario"
)

// TestAgingOffsets pins the Figs. 16–17 ages to the test-set size: short
// sets drop the ages they cannot hold, long sets gain 100 and 200.
func TestAgingOffsets(t *testing.T) {
	for _, tc := range []struct {
		packets int
		want    []int
	}{
		{40, []int{0, 1, 5, 10, 20}},
		{64, []int{0, 1, 5, 10, 20, 50}},
		{300, []int{0, 1, 5, 10, 20, 50, 100, 200}},
	} {
		if got := agingOffsets(tc.packets); !slices.Equal(got, tc.want) {
			t.Errorf("agingOffsets(%d) = %v, want %v", tc.packets, got, tc.want)
		}
	}
}

// TestParseFigures holds -figures to the names main handles: an unknown
// name fails and lists the known ones instead of printing nothing.
func TestParseFigures(t *testing.T) {
	for _, tc := range []struct {
		list string
		want []string // sorted; nil means an error
	}{
		{"all", []string{"all"}},
		{"12, Aging,16", []string{"12", "16", "aging"}},
		{strings.Join(figureNames, ","), figureNames},
		{"nope", nil},
		{"12,nope", nil},
		{"", nil},
	} {
		got, err := parseFigures(tc.list)
		if tc.want == nil {
			if err == nil || !strings.Contains(err.Error(), "ablations") {
				t.Errorf("parseFigures(%q) = %v, %v; want an error listing the known names", tc.list, got, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseFigures(%q): %v", tc.list, err)
			continue
		}
		if names := slices.Sorted(maps.Keys(got)); !slices.Equal(names, slices.Sorted(slices.Values(tc.want))) {
			t.Errorf("parseFigures(%q) = %v, want %v", tc.list, names, tc.want)
		}
	}
}

// TestRunSweepResolvesBeforeGeneration holds -scenarios to its names: a
// typo anywhere in the list fails before the first campaign is generated,
// and the error lists the presets. The campaign here cannot be generated
// (PSDU length 0), so reaching generation would fail with another error.
func TestRunSweepResolvesBeforeGeneration(t *testing.T) {
	p := experiments.DefaultParams()
	p.Campaign.PSDULen = 0
	err := runSweep(p, "paper-default, nope", "")
	if err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("runSweep(paper-default, nope) = %v; want an unknown-scenario error", err)
	}
	for _, name := range scenario.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error does not list preset %q: %v", name, err)
		}
	}
}
