package experiments

import (
	"reflect"
	"strings"
	"testing"

	"vvd/internal/core"
	"vvd/internal/dataset"
	"vvd/internal/scenario"
)

func sweepParams(workers int) Params {
	cfg := dataset.DefaultConfig()
	cfg.Sets = 3
	cfg.PacketsPerSet = 10
	cfg.PSDULen = 24
	cfg.Seed = 99
	train := core.DefaultTrainConfig()
	train.Epochs = 2
	return Params{Campaign: cfg, Combos: 1, Train: train, SkipPackets: 2, Workers: workers}
}

// presets looks up the named presets a sweep test evaluates.
func presets(t *testing.T, names ...string) []scenario.Scenario {
	t.Helper()
	out := make([]scenario.Scenario, len(names))
	for i, name := range names {
		s, err := scenario.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = s
	}
	return out
}

// TestEvaluateScenariosParallelMatchesSequential pins the acceptance bound
// of the scenario engine: the crowded-room-4 sweep is byte-identical at
// Workers=1 and Workers=8 — generation, training and evaluation all
// included. Run under -race in CI it doubles as the race check over the
// multi-occupant pipeline end to end.
func TestEvaluateScenariosParallelMatchesSequential(t *testing.T) {
	techniques := []string{core.TechPreamble, core.TechKalmanAR5, core.TechVVDCurrent}
	ss := presets(t, "crowded-room-4", "empty-room")
	seq, err := EvaluateScenarios(sweepParams(1), ss, techniques)
	if err != nil {
		t.Fatal(err)
	}
	par, err := EvaluateScenarios(sweepParams(8), ss, techniques)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("result counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Name != par[i].Name || seq[i].Occupants != par[i].Occupants {
			t.Fatalf("scenario %d metadata differs", i)
		}
		if !reflect.DeepEqual(seq[i].Results, par[i].Results) {
			t.Fatalf("scenario %s: counters differ between workers=1 and workers=8", seq[i].Name)
		}
	}
}

// TestScenarioSweepSummaryAndTable sanity-checks the aggregation and the
// rendered table: every requested technique appears, availability is a
// fraction, and the table names each scenario.
func TestScenarioSweepSummaryAndTable(t *testing.T) {
	techniques := []string{core.TechPreamble, core.TechKalmanAR5}
	results, err := EvaluateScenarios(sweepParams(0), presets(t, "paper-default", "low-snr"), techniques)
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range results {
		sum := sr.Summary()
		for _, tech := range techniques {
			ts, ok := sum[tech]
			if !ok {
				t.Fatalf("%s: technique %q missing from summary", sr.Name, tech)
			}
			if ts.Availability < 0 || ts.Availability > 1 {
				t.Fatalf("%s/%s: availability %g outside [0,1]", sr.Name, tech, ts.Availability)
			}
			if ts.PER < 0 || ts.PER > 1 {
				t.Fatalf("%s/%s: PER %g outside [0,1]", sr.Name, tech, ts.PER)
			}
		}
	}
	table := RenderScenarioTable(results, techniques)
	for _, want := range []string{"paper-default", "low-snr", core.TechPreamble} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}
