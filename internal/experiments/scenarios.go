package experiments

import (
	"fmt"
	"strings"
	"time"

	"vvd/internal/core"
	"vvd/internal/scenario"
)

// ScenarioResult is the outcome of one scenario's full evaluation inside a
// cross-scenario sweep: the per-combination counters plus timing.
type ScenarioResult struct {
	Name        string
	Occupants   int // occupants actually configured (0 = empty room)
	GenSeconds  float64
	EvalSeconds float64
	Results     []*ComboResult
}

// TechSummary aggregates one technique over every combination of a
// scenario.
type TechSummary struct {
	// MSE averages each combination's Eq. 9 MSE with equal weight — the
	// same each-combination-is-one-sample treatment as the paper's box
	// plots (BoxOver) — while Availability and PER pool packets across
	// combinations.
	MSE          float64
	HasMSE       bool
	Availability float64 // fraction of counted packets with an estimate
	PER          float64
}

// Summary flattens the per-combination counters into one row per
// technique: packet counts pool across combinations, MSE averages over
// combinations (see TechSummary).
func (sr *ScenarioResult) Summary() map[string]TechSummary {
	type agg struct {
		packets, errs, unavail int
	}
	pool := map[string]*agg{}
	mseOf := map[string][]float64{}
	for _, r := range sr.Results {
		for name, c := range r.Counters {
			a := pool[name]
			if a == nil {
				a = &agg{}
				pool[name] = a
			}
			a.packets += c.Packets
			a.errs += c.PacketErrs
			a.unavail += c.Unavail
			if c.HasMSE() {
				mseOf[name] = append(mseOf[name], c.MSE())
			}
		}
	}
	out := map[string]TechSummary{}
	for name, a := range pool {
		s := TechSummary{}
		if a.packets > 0 {
			s.PER = float64(a.errs) / float64(a.packets)
			s.Availability = 1 - float64(a.unavail)/float64(a.packets)
		}
		if v := mseOf[name]; len(v) > 0 {
			var sum float64
			for _, m := range v {
				sum += m
			}
			s.MSE = sum / float64(len(v))
			s.HasMSE = true
		}
		out[name] = s
	}
	return out
}

// SweepTechniques is the compact technique set a cross-scenario sweep
// evaluates by default: the realistic receiver (preamble), the two
// predictive families the paper compares (Kalman, VVD) and their combined
// flows, bracketed by the ground truth.
var SweepTechniques = []string{
	core.TechPreamble,
	core.TechKalmanAR20,
	core.TechVVDCurrent,
	core.TechCombinedKalman,
	core.TechCombinedVVD,
	core.TechGroundTruth,
}

// EvaluateScenarios runs the full generate→train→evaluate pipeline once per
// scenario and returns one result per scenario, in the given order. p is
// the base: each scenario rewrites only the world-shaping campaign fields,
// so sets/packets/seed/training/worker knobs apply uniformly and results
// are comparable across scenarios. nil techniques selects SweepTechniques.
//
// Like Evaluate, the sweep is deterministic in Params.Workers: generation
// and evaluation are byte-identical at any fan-out width (pinned by
// TestEvaluateScenariosParallelMatchesSequential).
func EvaluateScenarios(p Params, ss []scenario.Scenario, techniques []string) ([]*ScenarioResult, error) {
	if techniques == nil {
		techniques = SweepTechniques
	}
	// Timing is injected (Params.Clock), never read ambiently: with no
	// clock every timestamp is the zero Time and the recorded timings are
	// 0, so the sweep result is a pure function of the seed.
	clock := p.Clock
	if clock == nil {
		clock = func() time.Time { return time.Time{} }
	}
	out := make([]*ScenarioResult, 0, len(ss))
	for _, s := range ss {
		sp := p
		sp.Campaign = s.Apply(p.Campaign)
		start := clock()
		sub, err := NewEngine(sp)
		if err != nil {
			return nil, fmt.Errorf("experiments: scenario %q: %w", s.Name, err)
		}
		mid := clock()
		res, err := sub.Evaluate(techniques)
		if err != nil {
			return nil, fmt.Errorf("experiments: scenario %q: %w", s.Name, err)
		}
		out = append(out, &ScenarioResult{
			Name:        s.Name,
			Occupants:   sp.Campaign.NumOccupants(),
			GenSeconds:  mid.Sub(start).Seconds(),
			EvalSeconds: clock().Sub(mid).Seconds(),
			Results:     res,
		})
	}
	return out, nil
}

// RenderScenarioTable formats a sweep as the occupancy-comparison table:
// one block per scenario, one row per technique, MSE / availability / PER
// pooled over the scenario's combinations. Techniques render in the given
// order (nil = SweepTechniques).
func RenderScenarioTable(results []*ScenarioResult, techniques []string) string {
	if techniques == nil {
		techniques = SweepTechniques
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Cross-scenario sweep: MSE / availability / PER per technique\n")
	fmt.Fprintf(&b, "%-18s %3s  %-28s %10s %7s %8s\n", "scenario", "occ", "technique", "mse", "avail", "per")
	for _, sr := range results {
		sum := sr.Summary()
		name := sr.Name
		for _, tech := range techniques {
			ts, ok := sum[tech]
			if !ok {
				continue
			}
			mse := "-"
			if ts.HasMSE {
				mse = fmt.Sprintf("%.3e", ts.MSE)
			}
			fmt.Fprintf(&b, "%-18s %3d  %-28s %10s %7.3f %8.4f\n",
				name, sr.Occupants, tech, mse, ts.Availability, ts.PER)
			name = "" // print the scenario label once per block
		}
		// Timing only renders when a clock was injected (Params.Clock), so
		// the default render is a pure function of the sweep result.
		if sr.GenSeconds != 0 || sr.EvalSeconds != 0 {
			fmt.Fprintf(&b, "%-18s      (generated in %.1fs, evaluated in %.1fs)\n", "", sr.GenSeconds, sr.EvalSeconds)
		}
	}
	return strings.TrimRight(b.String(), "\n")
}
