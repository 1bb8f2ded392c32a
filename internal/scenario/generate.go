package scenario

import "math"

// Bounds delimits the world space the random generator samples. Every
// range is inclusive and must stay inside what dataset.Config.Validate
// accepts — the generator's contract is that any scenario it returns
// applies onto a valid base configuration without tripping validation.
type Bounds struct {
	// MaxOccupants caps the crowd size of non-empty draws (≥ 1).
	MaxOccupants int
	// PEmpty is the probability of drawing the empty room.
	PEmpty float64
	// PScripted is the probability (for non-empty rooms) that occupant 0
	// follows the deterministic LoS-crossing diagonal.
	PScripted float64
	// SNRMin/SNRMax bound the clear-channel SNR in dB.
	SNRMin, SNRMax float64
	// SpeedMin/SpeedMax bound the pinned walker speed in m/s; SpeedMin
	// must be positive (a zero speed with walkers fails validation).
	SpeedMin, SpeedMax float64
	// ScaleMin/ScaleMax bound the proportional room-size factor applied to
	// the paper's 8×6×3 m lab. ScaleMin must keep the scaled height at or
	// above dataset.MinRoomDim (scale ≥ 0.7 is safe).
	ScaleMin, ScaleMax float64
	// ScatterMax bounds the human-body re-radiation gain draw in
	// [0, ScatterMax]; a zero draw keeps the base default.
	ScatterMax float64
}

// DefaultBounds spans the space the property suite explores: up to an
// 8-person crowd, link quality from near-deaf to clean, walkers from a
// shuffle to a sprint, rooms from a small office to a hall.
func DefaultBounds() Bounds {
	return Bounds{
		MaxOccupants: 8,
		PEmpty:       0.1,
		PScripted:    0.15,
		SNRMin:       3,
		SNRMax:       30,
		SpeedMin:     0.2,
		SpeedMax:     2.0,
		ScaleMin:     0.75,
		ScaleMax:     2.0,
		ScatterMax:   0.6,
	}
}

// Random draws one scenario from the bounded space and composes it. The
// draw order is fixed (occupancy, scripted, SNR, speed, room scale,
// scatter — always six draws, whether or not a draw's result is used),
// so a given RNG state maps to exactly one scenario: replaying a seed
// through NewPCG replays the world, which is how property-suite
// counterexamples and fuzz crashes reproduce.
func Random(r RNG, b Bounds) Scenario {
	uOcc := r.Rand()
	uScripted := r.Rand()
	uSNR := r.Rand()
	uSpeed := r.Rand()
	uScale := r.Rand()
	uScatter := r.Rand()

	occ := 0
	if uOcc >= b.PEmpty {
		occ = 1 + int((uOcc-b.PEmpty)/(1-b.PEmpty)*float64(b.MaxOccupants))
		if occ > b.MaxOccupants {
			occ = b.MaxOccupants
		}
	}

	cs := []Combinator{Occupancy(occ)}
	if occ > 0 && uScripted < b.PScripted {
		cs = append(cs, ScriptedCrossing())
	}
	cs = append(cs, SNR(round(lerp(b.SNRMin, b.SNRMax, uSNR), 0.1)))
	if occ > 0 {
		cs = append(cs, Mobility(round(lerp(b.SpeedMin, b.SpeedMax, uSpeed), 0.01)))
	}
	scale := lerp(b.ScaleMin, b.ScaleMax, uScale)
	cs = append(cs, Geometry(round(8*scale, 0.1), round(6*scale, 0.1), round(3*scale, 0.1)))
	if s := round(lerp(0, b.ScatterMax, uScatter), 0.01); s > 0 && occ > 0 {
		cs = append(cs, Scatter(s))
	}
	return Compose(cs...)
}

// lerp maps u in [0,1) onto [lo,hi].
func lerp(lo, hi, u float64) float64 { return lo + u*(hi-lo) }

// round quantizes x to the given step so generated scenario names stay
// short (12.3, not 12.299999999999999). Dividing by the inverse step — an
// exactly-representable integer for the steps used here — lands on the
// double nearest the decimal, which %g then prints in its short form;
// multiplying by the step itself would not (63*0.1 ≠ 6.3's nearest double).
func round(x, step float64) float64 {
	inv := math.Round(1 / step)
	return math.Round(x*inv) / inv
}
