package scenario_test

import (
	"fmt"
	"math"
	"math/cmplx"
	"reflect"
	"testing"

	"vvd/internal/channel"
	"vvd/internal/dataset"
	"vvd/internal/room"
	"vvd/internal/scenario"
)

// The physics property suite: every test draws worlds from the seeded
// scenario generator and asserts invariants the channel model must satisfy
// by construction. A failure message always carries the seed — replaying it
// through scenario.Random(scenario.NewPCG(seed), scenario.DefaultBounds())
// rebuilds the exact counterexample world.

// propConfig applies a generated scenario onto the property-suite base
// scale: no images (the channel properties never look at frames), few
// packets, seed tied to the scenario seed so campaigns differ across draws.
func propConfig(s scenario.Scenario, seed uint64) dataset.Config {
	base := dataset.DefaultConfig()
	base.Sets = 2
	base.PacketsPerSet = 8
	base.PSDULen = 24
	base.Seed = seed
	base.RenderImages = false
	return s.Apply(base)
}

// genWorld draws scenario #seed and generates its campaign, failing the
// test with the reproduction seed on any error.
func genWorld(t *testing.T, seed uint64) (scenario.Scenario, *dataset.Campaign) {
	t.Helper()
	s := scenario.Random(scenario.NewPCG(seed), scenario.DefaultBounds())
	cfg := propConfig(s, seed)
	c, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatalf("seed %d (%s): generate: %v", seed, s.Name, err)
	}
	return s, c
}

func energy(cir []complex128) float64 {
	e := 0.0
	for _, c := range cir {
		e += real(c)*real(c) + imag(c)*imag(c)
	}
	return e
}

// TestPropertyGeneratedScenariosValid pins the generator's contract: every
// drawn scenario applies onto a valid base config, and the same seed always
// draws the same world: the same name and the same applied configuration.
func TestPropertyGeneratedScenariosValid(t *testing.T) {
	b := scenario.DefaultBounds()
	for seed := uint64(0); seed < 200; seed++ {
		s := scenario.Random(scenario.NewPCG(seed), b)
		cfg := propConfig(s, seed)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("seed %d: generated scenario %q fails validation: %v", seed, s.Name, err)
		}
		again := scenario.Random(scenario.NewPCG(seed), b)
		if again.Name != s.Name || propConfig(again, seed) != cfg {
			t.Fatalf("seed %d: replay drew %q, first draw was %q", seed, again.Name, s.Name)
		}
	}
}

// TestPropertyAvailabilityMonotoneInSNR asserts that raising the link SNR
// never loses preamble detections: the generator draws a world, the same
// campaign is rendered at a near-deaf and at a clean SNR (same seed — the
// noise draws are identical, only their amplitude scales, so the occupant
// trajectories match packet for packet), and the detection rate must not
// decrease.
func TestPropertyAvailabilityMonotoneInSNR(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		s := scenario.Random(scenario.NewPCG(seed), scenario.DefaultBounds())
		cfg := propConfig(s, seed)
		cfg.PacketsPerSet = 12

		low := cfg
		low.Imp.SNRdB = 3
		high := cfg
		high.Imp.SNRdB = 30
		cLow, err := dataset.Generate(low)
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, s.Name, err)
		}
		cHigh, err := dataset.Generate(high)
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, s.Name, err)
		}

		detLow, detHigh := 0, 0
		for si := range cLow.Sets {
			for ki := range cLow.Sets[si].Packets {
				pl, ph := &cLow.Sets[si].Packets[ki], &cHigh.Sets[si].Packets[ki]
				if pl.Pos != ph.Pos || !reflect.DeepEqual(pl.Others, ph.Others) {
					t.Fatalf("seed %d (%s): set %d packet %d trajectories diverge across SNR", seed, s.Name, si, ki)
				}
				if pl.PreambleDetected {
					detLow++
				}
				if ph.PreambleDetected {
					detHigh++
				}
			}
		}
		if detHigh < detLow {
			t.Fatalf("seed %d (%s): availability not monotone in SNR: %d detections at 3 dB, %d at 30 dB",
				seed, s.Name, detLow, detHigh)
		}
	}
}

// TestPropertyOccupancyEnergy asserts the three grades of the
// "bodies absorb energy" physics over generated worlds and their recorded
// occupant constellations:
//
//  1. Theorem grade, per path: adding an occupant can only attenuate a
//     specular path (blockage factors are ≤ 1 and multiply), so every
//     non-owned path magnitude is non-increasing under occupant prefixes.
//  2. Theorem grade, aggregate: with body re-radiation and the diffuse tail
//     switched off, total path energy is non-increasing in occupant count.
//  3. Empirical envelope, full model: body scatter and tail stirring add
//     energy coherently, so strict monotonicity is genuinely false there —
//     instead the occupied-room CIR energy must stay within a calibrated
//     envelope of the clear-room energy (measured [0.003, 2.63]× over the
//     default lab; asserted with margin) and be NaN-free.
func TestPropertyOccupancyEnergy(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		s, c := genWorld(t, seed)
		blockOnly := *c.Geometry
		blockOnly.HumanScatterGain = 0
		blockOnly.TailClusters = nil
		clear := c.Model.ClearGain()

		for si := range c.Sets {
			for ki := range c.Sets[si].Packets {
				p := &c.Sets[si].Packets[ki]
				hs := p.Bodies(c.Cfg)
				where := fmt.Sprintf("seed %d (%s) set %d packet %d", seed, s.Name, si, ki)

				// (1) per-specular-path prefix monotonicity.
				for n := len(hs); n > 0; n-- {
					full := c.Geometry.PathsMulti(hs[:n])
					pre := c.Geometry.PathsMulti(hs[:n-1])
					for i := range full {
						if full[i].Kind == channel.KindHumanScatter || full[i].Kind == channel.KindDiffuseTail {
							break // specular paths precede scatter and tail
						}
						fm, pm := cmplx.Abs(full[i].Gain), cmplx.Abs(pre[i].Gain)
						if fm > pm*(1+1e-12) {
							t.Fatalf("%s: path %d magnitude grew %g -> %g when occupant %d entered",
								where, i, pm, fm, n-1)
						}
					}
					// (2) aggregate monotonicity, blockage-only model.
					ef := pathEnergy(blockOnly.PathsMulti(hs[:n]))
					ep := pathEnergy(blockOnly.PathsMulti(hs[:n-1]))
					if ef > ep*(1+1e-12) {
						t.Fatalf("%s: blockage-only path energy grew %g -> %g at %d occupants",
							where, ep, ef, n)
					}
				}

				// (3) full-model envelope + finiteness.
				cir := c.Model.CIRMulti(hs)
				e := energy(cir)
				if math.IsNaN(e) || math.IsInf(e, 0) {
					t.Fatalf("%s: CIR energy %g not finite", where, e)
				}
				if e < 1e-5*clear || e > 5*clear {
					t.Fatalf("%s: occupied CIR energy %g outside envelope [%g, %g] of clear %g",
						where, e, 1e-5*clear, 5*clear, clear)
				}
			}
		}
	}
}

func pathEnergy(paths []channel.Path) float64 {
	e := 0.0
	for _, p := range paths {
		m := cmplx.Abs(p.Gain)
		e += m * m
	}
	return e
}

// TestPropertyEmptyRoomMatchesClear pins the zero-occupant identity: an
// emptied generated world produces the clear-channel CIR exactly —
// CIRMulti(nil) ≡ ProjectPaths(PathsClear()) — and the channel is static
// (every packet of the campaign records that same CIR).
func TestPropertyEmptyRoomMatchesClear(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		s := scenario.Random(scenario.NewPCG(seed), scenario.DefaultBounds())
		cfg := propConfig(s, seed)
		cfg.Occupants = -1
		cfg.Scripted = false
		cfg.Sets = 1
		cfg.PacketsPerSet = 4
		c, err := dataset.Generate(cfg)
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, s.Name, err)
		}
		clear := c.Model.ProjectPaths(c.Geometry.PathsClear())
		multi := c.Model.CIRMulti(nil)
		if !reflect.DeepEqual(clear, multi) {
			t.Fatalf("seed %d (%s): CIRMulti(nil) differs from the clear-channel projection", seed, s.Name)
		}
		for ki := range c.Sets[0].Packets {
			if !reflect.DeepEqual(c.Sets[0].Packets[ki].TrueCIR, clear) {
				t.Fatalf("seed %d (%s): packet %d of an empty room deviates from the clear channel",
					seed, s.Name, ki)
			}
		}
	}
}

// TestPropertyCrowdSeparation asserts the crowd's escape rule at the
// campaign level: within a set, once every pair of random walkers respects
// the minimum separation, no later packet may record a violation (the walk
// can only separate further — room.Crowd.Step's no-new-violation
// invariant). Initial seeding may start tighter than MinSep in small rooms,
// which is why the rule arms only after the first fully-separated packet.
// A scripted occupant moves obliviously through the crowd, so it is
// excluded from the pairings.
func TestPropertyCrowdSeparation(t *testing.T) {
	const tol = 1e-9
	for seed := uint64(0); seed < 8; seed++ {
		s, c := genWorld(t, seed)
		if c.Cfg.NumOccupants() < 2 {
			continue
		}
		area := c.Room.MovementArea
		for si := range c.Sets {
			armed := false
			for ki := range c.Sets[si].Packets {
				p := &c.Sets[si].Packets[ki]
				walkers := append([]room.Vec3{p.Pos}, p.Others...)
				for _, pos := range walkers {
					if !area.Contains(pos.X, pos.Y) {
						t.Fatalf("seed %d (%s): set %d packet %d occupant at (%g,%g) outside movement area",
							seed, s.Name, si, ki, pos.X, pos.Y)
					}
				}
				if c.Cfg.Scripted {
					walkers = walkers[1:]
				}
				sep := allSeparated(walkers, room.DefaultMinSeparation-tol)
				if armed && !sep {
					t.Fatalf("seed %d (%s): set %d packet %d re-created a separation violation after the crowd had spread",
						seed, s.Name, si, ki)
				}
				armed = armed || sep
			}
		}
	}
}

func allSeparated(ps []room.Vec3, minSep float64) bool {
	for i := range ps {
		for j := i + 1; j < len(ps); j++ {
			if ps[i].Dist(ps[j]) < minSep {
				return false
			}
		}
	}
	return true
}
