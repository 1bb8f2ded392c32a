// Package scenario is the declarative catalogue of measurement campaigns
// the simulated testbed can stage. The paper measured exactly one world — a
// single person walking one laboratory room — and the reproduction long
// hard-coded that shape. A Scenario names a full world configuration
// (occupancy, mobility, trajectory style, link quality) as an ordered list
// of combinators, each of which rewrites dataset.Config fields. The
// built-in presets are a fixed table (presets.go) that Lookup, Names, All
// and Resolve read; composed and randomly drawn scenarios are plain values
// that nothing records.
//
// Scenarios expand along the axes the paper could not measure: how does
// vision-based estimation compare to Kalman tracking as the room fills
// with people (crowded-room-*), when nobody moves through the beam at all
// (empty-room), when the walker sprints (high-mobility), or when the link
// itself degrades (low-snr)? The Apply model keeps the dataset layer
// authoritative: a Scenario only rewrites dataset.Config fields, the
// resulting Config travels through the campaign store header, and
// regeneration never needs the scenario again.
package scenario

import (
	"fmt"
	"slices"
	"strings"

	"vvd/internal/dataset"
)

// Scenario is one named world: the combinators that rewrite a base
// configuration into it. Fields a scenario's combinators do not write keep
// the base configuration's value, so scenarios compose with the scale
// knobs (sets, packets, seed, workers) the caller already chose.
type Scenario struct {
	// Name is the preset name (kebab-case, e.g. "crowded-room-4") or the
	// composed provenance (e.g. "occ4+snr7dB").
	Name string
	// Description is the one-line summary shown by -list-scenarios.
	Description string
	cs          []Combinator
}

// Apply runs the scenario's combinators over a base configuration, in
// order, and stamps the scenario name into it. Scale knobs (Sets,
// PacketsPerSet, PSDULen, Seed, RenderImages, Workers) pass through
// untouched.
func (s Scenario) Apply(cfg dataset.Config) dataset.Config {
	for _, c := range s.cs {
		c.apply(&cfg)
	}
	cfg.Scenario = s.Name
	return cfg
}

// Lookup resolves a preset name.
func Lookup(name string) (Scenario, error) {
	for _, s := range presets {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("scenario: unknown scenario %q (presets: %s)", name, strings.Join(Names(), ", "))
}

// Names lists every preset name, sorted.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, s := range all {
		out[i] = s.Name
	}
	return out
}

// All returns every preset sorted by name.
func All() []Scenario {
	out := slices.Clone(presets)
	slices.SortFunc(out, func(a, b Scenario) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// Resolve looks the preset up and applies it over base in one step — the
// common CLI path.
func Resolve(name string, base dataset.Config) (dataset.Config, error) {
	s, err := Lookup(name)
	if err != nil {
		return dataset.Config{}, err
	}
	return s.Apply(base), nil
}
