package room

import (
	"math"
	"math/rand/v2"
)

// MobilityConfig parameterizes the random-waypoint walk of the human inside
// the movement area. The paper's human is "always mobile during the
// measurements", so the model has no pause time by default.
type MobilityConfig struct {
	SpeedMin  float64 // m/s
	SpeedMax  float64 // m/s
	PauseTime float64 // seconds spent at each waypoint (0 = always mobile)
}

// DefaultMobility returns typical indoor walking dynamics.
func DefaultMobility() MobilityConfig {
	return MobilityConfig{SpeedMin: 0.3, SpeedMax: 0.9, PauseTime: 0}
}

// TrajectoryPoint is a sampled human position at a point in time.
type TrajectoryPoint struct {
	T   float64 // seconds since trajectory start
	Pos Vec3
}

// Walker generates a continuous random-waypoint trajectory. It is stateful:
// repeated Step calls advance the walk.
type Walker struct {
	area    Rect
	cfg     MobilityConfig
	rng     *rand.Rand
	pos     Vec3
	target  Vec3
	speed   float64
	pausing float64
	started bool
}

// NewWalker creates a walker confined to area. A nil rng panics.
func NewWalker(area Rect, cfg MobilityConfig, rng *rand.Rand) *Walker {
	if rng == nil {
		panic("room: NewWalker needs a rand source")
	}
	w := &Walker{area: area, cfg: cfg, rng: rng}
	w.pos = w.randomPoint()
	w.pickTarget()
	return w
}

func (w *Walker) randomPoint() Vec3 {
	return Vec3{
		X: w.area.MinX + w.rng.Float64()*w.area.Width(),
		Y: w.area.MinY + w.rng.Float64()*w.area.Height(),
	}
}

func (w *Walker) pickTarget() {
	w.target = w.randomPoint()
	span := w.cfg.SpeedMax - w.cfg.SpeedMin
	if span < 0 {
		span = 0
	}
	w.speed = w.cfg.SpeedMin + w.rng.Float64()*span
	if w.speed <= 0 {
		w.speed = 0.5
	}
}

// Pos returns the current position.
func (w *Walker) Pos() Vec3 { return w.pos }

// Step advances the walk by dt seconds and returns the new position.
func (w *Walker) Step(dt float64) Vec3 {
	if dt < 0 {
		dt = 0
	}
	remaining := dt
	for remaining > 0 {
		if w.pausing > 0 {
			hold := math.Min(w.pausing, remaining)
			w.pausing -= hold
			remaining -= hold
			continue
		}
		to := w.target.Sub(w.pos)
		dist := to.Norm()
		if dist < 1e-9 {
			w.pausing = w.cfg.PauseTime
			w.pickTarget()
			if w.cfg.PauseTime == 0 && remaining < 1e-12 {
				break
			}
			continue
		}
		travel := w.speed * remaining
		if travel >= dist {
			w.pos = w.target
			remaining -= dist / w.speed
			w.pausing = w.cfg.PauseTime
			w.pickTarget()
			continue
		}
		w.pos = w.pos.Add(to.Scale(travel / dist))
		remaining = 0
	}
	return w.pos
}

// Sample produces n positions separated by dt seconds (the first sample is
// the position after one step, mirroring a camera that starts rolling as
// the human is already moving).
func (w *Walker) Sample(n int, dt float64) []TrajectoryPoint {
	pts := make([]TrajectoryPoint, n)
	for i := range pts {
		pos := w.Step(dt)
		pts[i] = TrajectoryPoint{T: float64(i+1) * dt, Pos: pos}
	}
	return pts
}

// DefaultMinSeparation is the closest two occupants' body axes approach
// during a crowd walk: two default bodies (0.25 m radius) plus a small
// personal-space margin.
const DefaultMinSeparation = 0.7

// Crowd steps several walkers through the shared movement area with
// collision-free sampling: a walker whose step would bring it within MinSep
// of another occupant holds its position for that step and re-draws its
// waypoint, so trajectories never interpenetrate. Each walker owns an
// independent random stream, and collision handling only ever consumes
// draws from the walker being stepped — a crowd of one is therefore
// bit-identical to a bare Walker over the same stream (the pre-multi-
// occupant trajectory), which is what keeps single-occupant campaigns
// reproducible across this generalization.
type Crowd struct {
	walkers []*Walker
	// MinSep is the minimum axis-to-axis distance enforced between
	// occupants (DefaultMinSeparation when NewCrowd is given 0).
	MinSep float64
	// Obstacles are extra occupant positions the walkers keep MinSep from
	// without steering them — e.g. a scripted walker that is not part of
	// the crowd. The caller updates the slice between Step calls as the
	// external occupants move.
	Obstacles []Vec3
}

// NewCrowd creates n walkers confined to area. rng(i) must return the
// random source of walker i; sources must be independent. Initial positions
// are resampled (from the colliding walker's own source) until every pair
// respects minSep, giving up after a bounded number of draws in areas too
// small for the crowd — the walk then starts as spread out as the draws
// allowed and separates as targets re-draw.
func NewCrowd(area Rect, cfg MobilityConfig, n int, rng func(i int) *rand.Rand, minSep float64) *Crowd {
	if minSep <= 0 {
		minSep = DefaultMinSeparation
	}
	c := &Crowd{walkers: make([]*Walker, n), MinSep: minSep}
	for i := 0; i < n; i++ {
		w := NewWalker(area, cfg, rng(i))
		for tries := 0; tries < 64 && c.collides(w.pos, i); tries++ {
			w.pos = w.randomPoint()
		}
		c.walkers[i] = w
	}
	return c
}

// collides reports whether p is within MinSep of any walker other than i
// that has already been constructed/stepped.
func (c *Crowd) collides(p Vec3, self int) bool {
	for j, w := range c.walkers {
		if j == self || w == nil {
			continue
		}
		if w.pos.Dist(p) < c.MinSep {
			return true
		}
	}
	return false
}

// Positions appends the current walker positions to dst and returns it.
func (c *Crowd) Positions(dst []Vec3) []Vec3 {
	for _, w := range c.walkers {
		dst = append(dst, w.pos)
	}
	return dst
}

// Step advances every walker by dt seconds in index order. A walker whose
// new position would violate MinSep against any other occupant's current
// position reverts to where it stood and re-draws its waypoint (from its
// own stream), yielding naturally avoiding trajectories without any
// cross-walker randomness coupling. Moves that *increase* the distance to
// an already-too-close neighbour are allowed, so a crowd seeded tighter
// than MinSep (possible in areas too small for it) separates instead of
// deadlocking; once apart, no step can re-create a violation.
func (c *Crowd) Step(dt float64) {
	if len(c.walkers) == 1 && len(c.Obstacles) == 0 {
		c.walkers[0].Step(dt)
		return
	}
	for i, w := range c.walkers {
		prev := w.pos
		w.Step(dt)
		if c.blockedWithin(w.pos, prev, i, c.MinSep*alertFactor) {
			// The waypoint move closes in on another body. Retreat
			// straight away from the nearest one instead of freezing —
			// essential against moving obstacles, which would otherwise
			// run a frozen walker over — as long as the retreat creates no
			// hard (MinSep) violation; freeze only when cornered. The
			// alert radius makes walkers yield before contact, buying lead
			// time against bodies faster than themselves.
			w.pos = prev
			if away := prev.Sub(c.nearestBody(prev, i)).Normalize(); away.Norm() > 0 {
				// Retreat at full walking speed: a yielding human hurries.
				cand := prev.Add(away.Scale(math.Max(w.speed, w.cfg.SpeedMax) * dt))
				cand.X = math.Min(math.Max(cand.X, w.area.MinX), w.area.MaxX)
				cand.Y = math.Min(math.Max(cand.Y, w.area.MinY), w.area.MaxY)
				if !c.blockedWithin(cand, prev, i, c.MinSep) {
					w.pos = cand
				}
			}
			w.pickTarget()
		}
	}
}

// alertFactor scales MinSep into the radius at which walkers start
// yielding: approaches inside alertFactor·MinSep trigger the retreat
// behavior while the hard non-interpenetration bound stays at MinSep.
const alertFactor = 1.5

// blockedWithin reports whether moving walker self from prev to p closes
// in on another body: p is within radius of it and no farther than prev
// was. Moves that strictly increase the distance of an already-close pair
// are allowed (escape).
func (c *Crowd) blockedWithin(p, prev Vec3, self int, radius float64) bool {
	for j, o := range c.walkers {
		if j == self {
			continue
		}
		if d := o.pos.Dist(p); d < radius && d <= o.pos.Dist(prev) {
			return true
		}
	}
	for _, o := range c.Obstacles {
		if d := o.Dist(p); d < radius && d <= o.Dist(prev) {
			return true
		}
	}
	return false
}

// nearestBody returns the position of the walker or obstacle closest to p
// (other than walker self).
func (c *Crowd) nearestBody(p Vec3, self int) Vec3 {
	best := math.Inf(1)
	var at Vec3
	for j, o := range c.walkers {
		if j == self {
			continue
		}
		if d := o.pos.Dist(p); d < best {
			best, at = d, o.pos
		}
	}
	for _, o := range c.Obstacles {
		if d := o.Dist(p); d < best {
			best, at = d, o
		}
	}
	return at
}

// ScriptedPath returns a deterministic trajectory that crosses the direct
// TX–RX line, useful for reproducible tests and the burst-error experiment
// (paper Fig. 15): the human walks from one corner of the movement area
// through its centre to the opposite corner and back, cyclically.
func ScriptedPath(area Rect, n int, dt float64, speed float64) []TrajectoryPoint {
	if speed <= 0 {
		speed = 1
	}
	a := Vec3{area.MinX, area.MinY, 0}
	b := Vec3{area.MaxX, area.MaxY, 0}
	leg := b.Sub(a)
	legLen := leg.Norm()
	pts := make([]TrajectoryPoint, n)
	pos := 0.0
	dir := 1.0
	for i := range pts {
		pos += speed * dt * dir
		for pos > legLen || pos < 0 {
			if pos > legLen {
				pos = 2*legLen - pos
				dir = -dir
			}
			if pos < 0 {
				pos = -pos
				dir = -dir
			}
		}
		p := a.Add(leg.Scale(pos / legLen))
		pts[i] = TrajectoryPoint{T: float64(i+1) * dt, Pos: p}
	}
	return pts
}
