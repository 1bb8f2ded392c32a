package scenario

import (
	"fmt"

	"vvd/internal/dataset"
	"vvd/internal/room"
)

// presets are the built-in worlds. They span the axes the paper's single
// measurement campaign could not: occupancy (empty room through eight
// walkers), trajectory style (random waypoint vs the deterministic LoS
// crossing), walker dynamics, and link quality. Downstream tooling
// (vvd-dataset -scenario, the experiments sweep, the conformance suite)
// reaches them through Lookup, Names and All and never hard-codes a name.
var presets = []Scenario{
	{
		Name:        "paper-default",
		Description: "the paper's campaign: one random-waypoint walker, default impairments",
	},
	{
		Name:        "scripted-crossing",
		Description: "one walker on the deterministic LoS-crossing diagonal (burst errors, Fig. 15)",
		cs:          []Combinator{ScriptedCrossing()},
	},
	{
		Name:        "crowded-room-2",
		Description: "two collision-avoiding walkers sharing the movement area",
		cs:          []Combinator{Occupancy(2)},
	},
	{
		Name:        "crowded-room-4",
		Description: "four collision-avoiding walkers: frequent simultaneous blockage",
		cs:          []Combinator{Occupancy(4)},
	},
	{
		Name:        "crowded-room-8",
		Description: "eight walkers: dense crowd, LoS almost permanently shadowed",
		cs:          []Combinator{Occupancy(8)},
	},
	{
		Name:        "high-mobility",
		Description: "one walker at jogging speed: channel decorrelates within a packet interval",
		cs:          []Combinator{speedRange(1.4, 2.4)},
	},
	{
		Name:        "low-snr",
		Description: "one walker over a 7 dB clear-channel link: fades push decoding off a cliff",
		cs:          []Combinator{SNR(7)},
	},
	{
		Name:        "high-snr",
		Description: "one walker over a 20 dB clear-channel link: estimation quality isolated from noise",
		cs:          []Combinator{SNR(20)},
	},
	{
		Name:        "empty-room",
		Description: "nobody in the room: static channel, background-only depth frames",
		cs:          []Combinator{Occupancy(0)},
	},
}

// speedRange lets every walker draw its speed from [lo, hi] m/s.
func speedRange(lo, hi float64) Combinator {
	return Combinator{
		Axis:  "speed",
		Value: fmt.Sprintf("%g-%gms", lo, hi),
		apply: func(cfg *dataset.Config) { cfg.Mobility = room.MobilityConfig{SpeedMin: lo, SpeedMax: hi} },
	}
}
