package scenario_test

import (
	"reflect"
	"strings"
	"testing"

	"vvd/internal/dataset"
	"vvd/internal/scenario"
)

// TestComposeNamesAndSemantics pins the algebra's core contract: the name
// is the provenance (fragments joined by "+", in composition order) and
// applying the composed scenario writes exactly the fields its combinators
// describe.
func TestComposeNamesAndSemantics(t *testing.T) {
	s := scenario.Compose(
		scenario.Occupancy(4),
		scenario.SNR(7),
		scenario.Mobility(1.5),
		scenario.Geometry(12, 9, 3.5),
		scenario.Scatter(0.4),
	)
	if s.Name != "occ4+snr7dB+speed1.5ms+room12x9x3.5+scatter0.4" {
		t.Fatalf("composed name %q", s.Name)
	}
	cfg := s.Apply(dataset.DefaultConfig())
	if cfg.Occupants != 4 || cfg.Imp.SNRdB != 7 || cfg.HumanScatterGain != 0.4 {
		t.Fatalf("combinators did not materialize: %+v", cfg)
	}
	if cfg.Mobility.SpeedMin != 1.5 || cfg.Mobility.SpeedMax != 1.5 {
		t.Fatalf("Mobility(1.5) must pin the speed: %+v", cfg.Mobility)
	}
	if cfg.RoomWidth != 12 || cfg.RoomDepth != 9 || cfg.RoomHeight != 3.5 {
		t.Fatalf("Geometry did not set the room: %+v", cfg)
	}
	if cfg.Scenario != s.Name {
		t.Fatalf("provenance not stamped: %q", cfg.Scenario)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("composed config invalid: %v", err)
	}

	// Empty-room encoding: Occupancy(0) means -1 at the config layer.
	empty := scenario.Compose(scenario.Occupancy(0))
	if c := empty.Apply(dataset.DefaultConfig()); empty.Name != "occ0" || c.Occupants != -1 || c.NumOccupants() != 0 {
		t.Fatalf("Occupancy(0) = %s, Occupants %d (%d people)", empty.Name, c.Occupants, c.NumOccupants())
	}

	// Left-to-right composition: a later combinator on the same axis wins,
	// and the name still records both fragments.
	over := scenario.Compose(scenario.SNR(7), scenario.SNR(25))
	if c := over.Apply(dataset.DefaultConfig()); c.Imp.SNRdB != 25 || over.Name != "snr7dB+snr25dB" {
		t.Fatalf("override semantics broken: %s at %g dB", over.Name, c.Imp.SNRdB)
	}

	if base := scenario.Compose(); base.Name != "base" {
		t.Fatalf("empty composition named %q", base.Name)
	}

	// The name states the speed the walkers run, at the 0.01 m/s grid
	// Random draws on.
	if got := scenario.Mobility(1.35).String(); got != "speed1.35ms" {
		t.Fatalf("Mobility(1.35) named %q", got)
	}
}

// TestGridExpansion pins the cross product: row-major order, one composed
// scenario per cell, Fixed context applied to every cell.
func TestGridExpansion(t *testing.T) {
	g := scenario.Grid{
		Rows:  []scenario.Combinator{scenario.Occupancy(1), scenario.Occupancy(4)},
		Cols:  []scenario.Combinator{scenario.SNR(7), scenario.SNR(13), scenario.SNR(25)},
		Fixed: []scenario.Combinator{scenario.Mobility(0.6)},
	}
	if g.RowAxis() != "occ" || g.ColAxis() != "snr" {
		t.Fatalf("axes %q/%q", g.RowAxis(), g.ColAxis())
	}
	cells := g.Scenarios()
	if len(cells) != 6 {
		t.Fatalf("expanded %d cells, want 6", len(cells))
	}
	wantNames := []string{
		"speed0.6ms+occ1+snr7dB", "speed0.6ms+occ1+snr13dB", "speed0.6ms+occ1+snr25dB",
		"speed0.6ms+occ4+snr7dB", "speed0.6ms+occ4+snr13dB", "speed0.6ms+occ4+snr25dB",
	}
	base := dataset.DefaultConfig()
	for i, c := range cells {
		if c.Name != wantNames[i] {
			t.Fatalf("cell %d named %q, want %q", i, c.Name, wantNames[i])
		}
		if cfg := c.Apply(base); cfg.Mobility.SpeedMin != 0.6 || cfg.Mobility.SpeedMax != 0.6 {
			t.Fatalf("cell %d lost the fixed mobility context: %+v", i, cfg.Mobility)
		}
	}
	// Row i, column j carries Rows[i] and Cols[j].
	if cfg := cells[3].Apply(base); cfg.Occupants != 4 || cfg.Imp.SNRdB != 7 {
		t.Fatalf("cell (1,0) = %+v", cfg)
	}
	if cfg := cells[2].Apply(base); cfg.Occupants != 1 || cfg.Imp.SNRdB != 25 {
		t.Fatalf("cell (0,2) = %+v", cfg)
	}
}

// TestRandomStaysInBounds draws a batch of scenarios and checks every axis
// lands inside the configured bounds (the generator's half of the contract
// that TestPropertyGeneratedScenariosValid checks at the config layer).
func TestRandomStaysInBounds(t *testing.T) {
	b := scenario.DefaultBounds()
	base := dataset.DefaultConfig()
	sawEmpty, sawCrowd, sawScripted := false, false, false
	for seed := uint64(0); seed < 300; seed++ {
		s := scenario.Random(scenario.NewPCG(seed), b)
		cfg := s.Apply(base)
		switch {
		case cfg.Occupants == -1:
			sawEmpty = true
		case cfg.Occupants > 1:
			sawCrowd = true
		}
		if cfg.Scripted {
			sawScripted = true
		}
		if cfg.Occupants > b.MaxOccupants {
			t.Fatalf("seed %d: %d occupants above bound %d", seed, cfg.Occupants, b.MaxOccupants)
		}
		if snr := cfg.Imp.SNRdB; snr < b.SNRMin-0.05 || snr > b.SNRMax+0.05 {
			t.Fatalf("seed %d: SNR %g outside [%g,%g]", seed, snr, b.SNRMin, b.SNRMax)
		}
		if cfg.Occupants == -1 {
			if cfg.Scripted || cfg.Mobility != base.Mobility {
				t.Fatalf("seed %d: empty room with walker axes: %+v", seed, cfg)
			}
		} else if m := cfg.Mobility; m.SpeedMin < b.SpeedMin-0.005 || m.SpeedMax > b.SpeedMax+0.005 {
			t.Fatalf("seed %d: speed %+v outside [%g,%g]", seed, m, b.SpeedMin, b.SpeedMax)
		}
		if cfg.RoomWidth < 8*b.ScaleMin-0.05 || cfg.RoomWidth > 8*b.ScaleMax+0.05 {
			t.Fatalf("seed %d: room width %g outside scale bounds", seed, cfg.RoomWidth)
		}
		if !strings.Contains(s.Name, "occ") || !strings.Contains(s.Name, "room") {
			t.Fatalf("seed %d: name %q missing mandatory axes", seed, s.Name)
		}
	}
	if !sawEmpty || !sawCrowd || !sawScripted {
		t.Fatalf("300 draws never hit every scenario class: empty=%v crowd=%v scripted=%v",
			sawEmpty, sawCrowd, sawScripted)
	}
}

// TestComposeZeroApplies pins that a combinator's value is written even
// when it is zero: the name snr0dB must run at 0 dB, not at the base SNR.
func TestComposeZeroApplies(t *testing.T) {
	s := scenario.Compose(scenario.SNR(0))
	if s.Name != "snr0dB" {
		t.Fatalf("composed name %q", s.Name)
	}
	if got := s.Apply(tinyConfig()).Imp.SNRdB; got != 0 {
		t.Fatalf("%s applied SNR %g dB", s.Name, got)
	}
}

// TestExtend pins how vvd-dataset's world flags act on a preset: they
// apply after it, zero values included, and the stamped name grows by
// their fragments.
func TestExtend(t *testing.T) {
	low, err := scenario.Resolve("low-snr", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := scenario.Extend(low, scenario.Occupancy(2))
	if c.Scenario != "low-snr+occ2" || c.Occupants != 2 || c.Imp.SNRdB != 7 {
		t.Fatalf("low-snr extended by occ2: %q, %d occupants at %g dB", c.Scenario, c.Occupants, c.Imp.SNRdB)
	}
	c = scenario.Extend(tinyConfig(), scenario.SNR(0), scenario.Occupancy(0))
	if c.Scenario != "snr0dB+occ0" || c.Imp.SNRdB != 0 || c.NumOccupants() != 0 {
		t.Fatalf("unnamed config extended by snr0dB+occ0: %q, %d people at %g dB", c.Scenario, c.NumOccupants(), c.Imp.SNRdB)
	}
	if c := scenario.Extend(low); c != low {
		t.Fatalf("Extend with no combinators changed the config: %+v", c)
	}
}

// TestNamesIgnoreComposedScenarios pins that composing, expanding a grid
// and drawing random worlds leave the preset catalogue alone: Names lists
// the nine built-in presets and nothing else, however many scenarios the
// process has built.
func TestNamesIgnoreComposedScenarios(t *testing.T) {
	want := []string{
		"crowded-room-2", "crowded-room-4", "crowded-room-8", "empty-room",
		"high-mobility", "high-snr", "low-snr", "paper-default", "scripted-crossing",
	}
	if got := scenario.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	s := scenario.Compose(scenario.Occupancy(3), scenario.SNR(11))
	g := scenario.Grid{
		Rows: []scenario.Combinator{scenario.Occupancy(1), scenario.Occupancy(5)},
		Cols: []scenario.Combinator{scenario.SNR(9), scenario.SNR(17)},
	}
	g.Scenarios()
	for seed := uint64(0); seed < 1000; seed++ {
		scenario.Random(scenario.NewPCG(seed), scenario.DefaultBounds())
	}
	if got := scenario.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() grew to %d entries after composing", len(got))
	}
	if _, err := scenario.Lookup(s.Name); err == nil {
		t.Fatalf("composed %q resolves as a preset", s.Name)
	}
}
