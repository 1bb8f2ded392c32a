package scenario_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"vvd/internal/dataset"
	"vvd/internal/scenario"
)

// tinyConfig is the campaign scale shared by the scenario tests: big enough
// for every preset to exercise its world shape, small enough to run under
// -race in CI.
func tinyConfig() dataset.Config {
	cfg := dataset.DefaultConfig()
	cfg.Sets = 2
	cfg.PacketsPerSet = 6
	cfg.PSDULen = 24
	cfg.Seed = 1234
	cfg.RenderImages = true
	return cfg
}

func TestRegistryLookup(t *testing.T) {
	names := scenario.Names()
	if len(names) < 8 {
		t.Fatalf("only %d presets: %v", len(names), names)
	}
	for _, want := range []string{"paper-default", "scripted-crossing", "crowded-room-2", "crowded-room-4", "crowded-room-8", "high-mobility", "low-snr", "empty-room"} {
		if _, err := scenario.Lookup(want); err != nil {
			t.Fatalf("preset %q missing: %v", want, err)
		}
	}
	_, err := scenario.Lookup("no-such-scenario")
	if err == nil {
		t.Fatal("unknown name resolved")
	}
	for _, name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error does not list preset %q: %v", name, err)
		}
	}
}

// TestApplyKeepsScaleKnobs pins the Apply contract: presets rewrite world
// shape only, never the caller's scale knobs.
func TestApplyKeepsScaleKnobs(t *testing.T) {
	base := tinyConfig()
	base.Workers = 3
	for _, s := range scenario.All() {
		cfg := s.Apply(base)
		if cfg.Sets != base.Sets || cfg.PacketsPerSet != base.PacketsPerSet ||
			cfg.PSDULen != base.PSDULen || cfg.Seed != base.Seed ||
			cfg.RenderImages != base.RenderImages || cfg.Workers != base.Workers {
			t.Fatalf("%s: scale knobs rewritten: %+v", s.Name, cfg)
		}
		if cfg.Scenario != s.Name {
			t.Fatalf("%s: scenario label not stamped", s.Name)
		}
	}
}

// TestPaperDefaultIsPureLabel pins that the paper-default preset changes
// nothing but the provenance label: its campaign is packet-for-packet
// identical to the base configuration's (the single-occupant
// backward-compatibility bound at the dataset layer).
func TestPaperDefaultIsPureLabel(t *testing.T) {
	base := tinyConfig()
	plain, err := dataset.Generate(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := scenario.Resolve("paper-default", base)
	if err != nil {
		t.Fatal(err)
	}
	labeled, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for si := range plain.Sets {
		for ki := range plain.Sets[si].Packets {
			if !reflect.DeepEqual(plain.Sets[si].Packets[ki], labeled.Sets[si].Packets[ki]) {
				t.Fatalf("set %d packet %d differs under the paper-default label", si, ki)
			}
		}
	}
}

// TestScenarioShapes spot-checks that each world axis actually materializes
// in the generated campaigns.
func TestScenarioShapes(t *testing.T) {
	gen := func(name string) *dataset.Campaign {
		t.Helper()
		cfg, err := scenario.Resolve(name, tinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		c, err := dataset.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	crowd := gen("crowded-room-4")
	for _, p := range crowd.Sets[0].Packets {
		if len(p.Others) != 3 {
			t.Fatalf("crowded-room-4 packet has %d extra occupants, want 3", len(p.Others))
		}
		if len(p.Bodies(crowd.Cfg)) != 4 {
			t.Fatalf("Bodies = %d, want 4", len(p.Bodies(crowd.Cfg)))
		}
	}

	empty := gen("empty-room")
	for _, p := range empty.Sets[0].Packets {
		if p.Others != nil || p.Bodies(empty.Cfg) != nil {
			t.Fatal("empty-room packet carries occupants")
		}
	}
	// A static channel: every packet of a set sees the same CIR.
	ref := empty.Sets[0].Packets[0].TrueCIR
	for _, p := range empty.Sets[0].Packets[1:] {
		if !reflect.DeepEqual(p.TrueCIR, ref) {
			t.Fatal("empty-room channel is not static")
		}
	}

	low := gen("low-snr")
	if low.Cfg.Imp.SNRdB != 7 {
		t.Fatalf("low-snr SNR = %g", low.Cfg.Imp.SNRdB)
	}
	fast := gen("high-mobility")
	if fast.Cfg.Mobility.SpeedMax <= tinyConfig().Mobility.SpeedMax {
		t.Fatal("high-mobility did not raise the walker speed")
	}
	scripted := gen("scripted-crossing")
	if !scripted.Cfg.Scripted {
		t.Fatal("scripted-crossing is not scripted")
	}
}

// TestScenarioGenerateParallelMatchesSequential extends the single-human
// generation-parity contract to every preset: for each one the campaign
// generated with 8 workers is packet-for-packet identical to the
// sequential one, multi-occupant trajectories, shared frame renders and
// all. Run under -race in CI it doubles as the data-race check over the
// multi-occupant fan-out.
func TestScenarioGenerateParallelMatchesSequential(t *testing.T) {
	for _, name := range scenario.Names() {
		cfg, err := scenario.Resolve(name, tinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = 1
		seq, err := dataset.Generate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg.Workers = 8
		par, err := dataset.Generate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for si := range seq.Sets {
			for ki := range seq.Sets[si].Packets {
				if !reflect.DeepEqual(seq.Sets[si].Packets[ki], par.Sets[si].Packets[ki]) {
					t.Fatalf("%s: set %d packet %d differs between workers=1 and workers=8", name, si, ki)
				}
			}
		}
	}
}

// TestScenarioRoundTripsStore pins the acceptance bound end to end for the
// multi-occupant flagship: a crowded-room-4 campaign survives the store v3
// round trip with config, occupant positions and bit-identical regenerated
// receptions.
func TestScenarioRoundTripsStore(t *testing.T) {
	cfg, err := scenario.Resolve("crowded-room-4", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	orig, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := dataset.OpenCampaign(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := r.ReadSets(nil)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Cfg != orig.Cfg {
		t.Fatalf("config lost: %+v vs %+v", loaded.Cfg, orig.Cfg)
	}
	for si := range orig.Sets {
		for ki := range orig.Sets[si].Packets {
			if !reflect.DeepEqual(orig.Sets[si].Packets[ki], loaded.Sets[si].Packets[ki]) {
				t.Fatalf("set %d packet %d lost in the round trip", si, ki)
			}
		}
	}
	_, _, recA, err := orig.ReceptionPacket(&orig.Sets[1].Packets[3])
	if err != nil {
		t.Fatal(err)
	}
	_, _, recB, err := loaded.ReceptionPacket(&loaded.Sets[1].Packets[3])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recA.Waveform, recB.Waveform) {
		t.Fatal("regenerated multi-occupant reception differs after reload")
	}
}
