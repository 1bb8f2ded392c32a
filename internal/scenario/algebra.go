// Scenario algebra: parameterized combinators compose into
// provenance-stamped Scenario values, and a Grid expands the cross product
// of two axes into the scenario set a multi-axis sweep evaluates.
//
// The hand-written presets (presets.go) name a handful of interesting
// worlds; the algebra makes the whole parameter space addressable. A
// composed scenario's name IS its provenance — "occ4+snr7dB+room12x9x3"
// says exactly which combinators produced it, in which order, with which
// values — so a sweep row's label says which world it measured over the
// sweep's base configuration, and a generated counterexample reproduces
// from its seed (see generate.go).
package scenario

import (
	"fmt"
	"slices"
	"strings"

	"vvd/internal/dataset"
	"vvd/internal/room"
)

// Combinator is one parameterized world-shaping transformation. Combinators
// are values (not functions) so an axis of a Grid can render itself: Axis
// names the dimension ("occ", "snr", …) and Value the setting ("4", "7dB").
// String() — Axis + Value — is the provenance fragment that becomes part of
// a composed scenario's name.
type Combinator struct {
	// Axis is the short dimension label, unique per combinator kind.
	Axis string
	// Value renders the parameter, e.g. "4", "7dB", "12x9x3".
	Value string
	apply func(*dataset.Config)
}

// String returns the provenance fragment, e.g. "occ4" or "snr7dB".
func (c Combinator) String() string { return c.Axis + c.Value }

// Occupancy places n people in the room: 0 empties it, 1 is the paper's
// single walker, n > 1 a collision-avoiding crowd.
func Occupancy(n int) Combinator {
	occ := n
	if n == 0 {
		occ = -1 // dataset.Config encodes "empty" as -1 (0 means default)
	}
	return Combinator{
		Axis:  "occ",
		Value: fmt.Sprintf("%d", n),
		apply: func(cfg *dataset.Config) { cfg.Occupants = occ },
	}
}

// Mobility pins every walker to the given constant speed in m/s (the
// random-waypoint walk keeps redrawing directions, only the speed draw
// collapses). Deterministic semantics beat a min/max pair in an algebra:
// the axis value states exactly how fast the room moves.
func Mobility(speed float64) Combinator {
	return Combinator{
		Axis:  "speed",
		Value: fmt.Sprintf("%gms", speed),
		apply: func(cfg *dataset.Config) { cfg.Mobility = room.MobilityConfig{SpeedMin: speed, SpeedMax: speed} },
	}
}

// SNR sets the clear-channel SNR in dB.
func SNR(db float64) Combinator {
	return Combinator{
		Axis:  "snr",
		Value: fmt.Sprintf("%gdB", db),
		apply: func(cfg *dataset.Config) { cfg.Imp.SNRdB = db },
	}
}

// Geometry sets the room dimensions in metres; the lab layout scales
// proportionally (room.ScaledLab).
func Geometry(w, d, h float64) Combinator {
	return Combinator{
		Axis:  "room",
		Value: fmt.Sprintf("%gx%gx%g", w, d, h),
		apply: func(cfg *dataset.Config) { cfg.RoomWidth, cfg.RoomDepth, cfg.RoomHeight = w, d, h },
	}
}

// Scatter sets the human-body re-radiation efficiency.
func Scatter(gain float64) Combinator {
	return Combinator{
		Axis:  "scatter",
		Value: fmt.Sprintf("%g", gain),
		apply: func(cfg *dataset.Config) { cfg.HumanScatterGain = gain },
	}
}

// ScriptedCrossing switches occupant 0 to the deterministic LoS-crossing
// diagonal.
func ScriptedCrossing() Combinator {
	return Combinator{
		Axis:  "scripted",
		Value: "",
		apply: func(cfg *dataset.Config) { cfg.Scripted = true },
	}
}

// Compose builds the scenario the combinators describe and stamps its
// provenance name from their String() fragments joined by "+". Apply runs
// them left to right, so a later combinator on the same axis wins (and
// its fragment still appears in the name, keeping the provenance honest
// about the full composition). Composing zero combinators yields the base
// world under the name "base".
func Compose(cs ...Combinator) Scenario {
	frags := make([]string, len(cs))
	for i, c := range cs {
		frags[i] = c.String()
	}
	name := strings.Join(frags, "+")
	if name == "" {
		name = "base"
	}
	return Scenario{Name: name, Description: "composed: " + name, cs: slices.Clone(cs)}
}

// Extend runs cs over a configuration some scenario (or none) already
// shaped and appends their fragments to its stamped name, so the name still
// states every combinator applied: "low-snr" extended by Occupancy(2) is
// "low-snr+occ2", an unnamed configuration extended by SNR(0) is "snr0dB".
// With no combinators cfg is returned unchanged.
func Extend(cfg dataset.Config, cs ...Combinator) dataset.Config {
	if len(cs) == 0 {
		return cfg
	}
	base := cfg.Scenario
	s := Compose(cs...)
	cfg = s.Apply(cfg)
	if base != "" {
		cfg.Scenario = base + "+" + s.Name
	}
	return cfg
}

// Grid is the cross product of two rendered axes over an optional fixed
// context: Scenarios expands Rows × Cols (row-major, deterministic order)
// into composed scenarios, one per cell.
type Grid struct {
	// Rows and Cols are the two swept axes. Every entry of an axis should
	// share its Axis label; RowAxis/ColAxis report the first entry's.
	Rows, Cols []Combinator
	// Fixed is applied to every cell before the axis combinators.
	Fixed []Combinator
}

// RowAxis and ColAxis name the swept dimensions (empty for empty axes).
func (g Grid) RowAxis() string {
	if len(g.Rows) == 0 {
		return ""
	}
	return g.Rows[0].Axis
}

// ColAxis names the column dimension.
func (g Grid) ColAxis() string {
	if len(g.Cols) == 0 {
		return ""
	}
	return g.Cols[0].Axis
}

// Scenarios expands the grid row-major: cell (i, j) composes
// Fixed + Rows[i] + Cols[j].
func (g Grid) Scenarios() []Scenario {
	out := make([]Scenario, 0, len(g.Rows)*len(g.Cols))
	for _, r := range g.Rows {
		for _, c := range g.Cols {
			cs := make([]Combinator, 0, len(g.Fixed)+2)
			cs = append(cs, g.Fixed...)
			cs = append(cs, r, c)
			out = append(out, Compose(cs...))
		}
	}
	return out
}
