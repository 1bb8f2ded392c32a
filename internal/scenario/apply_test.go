package scenario_test

import (
	"reflect"
	"sort"
	"testing"

	"vvd/internal/scenario"
)

// TestPresetApplyFieldDiscipline walks every built-in preset and diffs the
// full dataset.Config (by reflection, field by field) before and after
// Apply. Two contracts fall out of the diff:
//
//  1. Apply always stamps provenance — the Scenario field changes to the
//     preset's name on every preset, including the pure-label one.
//  2. Apply rewrites world-shaping fields only, and exactly the ones the
//     preset declares. A preset that started touching Seed, Sets or any
//     other scale knob — or a world axis it does not advertise — fails
//     here with the stray field named.
func TestPresetApplyFieldDiscipline(t *testing.T) {
	// The world-shaping fields a preset may legally rewrite.
	worldFields := map[string]bool{
		"Scenario": true, "Occupants": true, "Scripted": true, "Imp": true,
		"Mobility": true, "HumanScatterGain": true,
		"RoomWidth": true, "RoomDepth": true, "RoomHeight": true,
	}
	// Exactly which fields each preset is expected to change relative to
	// tinyConfig (Scenario is implicit: every preset stamps it).
	expect := map[string][]string{
		"paper-default":     {},
		"scripted-crossing": {"Scripted"},
		"crowded-room-2":    {"Occupants"},
		"crowded-room-4":    {"Occupants"},
		"crowded-room-8":    {"Occupants"},
		"high-mobility":     {"Mobility"},
		"low-snr":           {"Imp"},
		"high-snr":          {"Imp"},
		"empty-room":        {"Occupants"},
	}

	base := tinyConfig()
	base.Workers = 5
	bv := reflect.ValueOf(base)
	typ := bv.Type()
	for _, name := range scenario.Names() {
		s, err := scenario.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		av := reflect.ValueOf(s.Apply(base))

		var changed []string
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !reflect.DeepEqual(bv.Field(i).Interface(), av.Field(i).Interface()) {
				changed = append(changed, f.Name)
			}
		}

		// Contract 1: provenance stamped, unconditionally.
		if got := av.FieldByName("Scenario").String(); got != name {
			t.Fatalf("%s: Apply stamped Scenario=%q", name, got)
		}

		// Contract 2: only declared world-shaping fields move.
		want := append([]string{"Scenario"}, expect[name]...)
		sort.Strings(changed)
		sort.Strings(want)
		if !reflect.DeepEqual(changed, want) {
			t.Fatalf("%s: Apply changed fields %v, want %v", name, changed, want)
		}
		for _, f := range changed {
			if !worldFields[f] {
				t.Fatalf("%s: Apply rewrote non-world field %s", name, f)
			}
		}
	}
}
