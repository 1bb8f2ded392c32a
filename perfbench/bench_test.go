package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
		Work     []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Work) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program has %d", len(b.Work), len(workloads))
	}
	for _, w := range b.Work {
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", w.Name)
		}
	}
	index := func(specs []metricSpec) map[string]string {
		m := map[string]string{}
		for _, s := range specs {
			m[s.Name] = s.Unit
		}
		return m
	}
	return index(b.EndToEnd), index(b.PerLayer)
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	e2e, layer := declared(t)
	for _, c := range []struct {
		name  string
		specs []metricSpec
		want  map[string]string
	}{{"end_to_end", endToEnd, e2e}, {"per_layer", perLayer(), layer}} {
		if len(c.specs) != len(c.want) {
			t.Errorf("%s: program reports %d metrics, BENCHMARK.json declares %d", c.name, len(c.specs), len(c.want))
		}
		for _, s := range c.specs {
			if unit, ok := c.want[s.Name]; !ok || unit != s.Unit {
				t.Errorf("%s: %s [%s] declared as [%s] (present %v)", c.name, s.Name, s.Unit, unit, ok)
			}
		}
	}
}

// TestTinyRuns runs both request mixes at tiny sizes, untraced and traced,
// and asserts every named metric is present with its unit and finite, and
// that no operation failed.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole system four times")
	}
	for _, mix := range []string{mixSubmit, mixFetch} {
		for _, traced := range []bool{false, true} {
			w := workload{
				Name: "tiny-" + mix, Epochs: 1, OfflineShare: 0.01,
				Mix: mix, Links: 6, Rate: 30, OpenShare: 0.4, ClosedShare: 0.2,
			}
			res, err := run(w, options{Seed: 3, Seconds: 1, Trace: traced, Workdir: t.TempDir(), Log: io.Discard})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", mix, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", mix, traced, res.Correct, res.Attempted, res.Failed)
			}
			specs := endToEnd
			if traced {
				specs = perLayer()
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", mix, traced, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				got, ok := res.Metrics[s.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s missing", mix, traced, s.Name)
				case got.Unit != s.Unit:
					t.Errorf("%s traced=%v: %s unit %q, want %q", mix, traced, s.Name, got.Unit, s.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%v: %s = %v", mix, traced, s.Name, got.Value)
				}
			}
		}
	}
}
