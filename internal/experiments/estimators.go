package experiments

import (
	"fmt"

	"vvd/internal/core"
	"vvd/internal/dataset"
	"vvd/internal/kalman"
)

// This file implements the 14 techniques of the paper's evaluation (§5).
// Each is a small, self-contained Estimator, built per combination by its
// entry in the fixed builders table; the engine never special-cases a
// technique. Figs. 15–17 and the ablations score these and their own
// estimators through the same lane loop.

// Availability describes whether a technique can produce an estimate for a
// given test packet, mirroring the three outcomes of the paper's decode
// comparison (§5–6). It is the second return of [Estimator.Estimate] and
// decides how the engine scores the packet: decode it, count it as lost,
// or leave it out entirely.
type Availability int

const (
	// Available: the technique produced an estimate (nil means standard
	// decoding, i.e. no equalization).
	Available Availability = iota
	// Unavailable: the technique exists but cannot estimate this packet
	// (e.g. the preamble was missed); the packet counts as erroneous.
	Unavailable
	// Skip: the technique is not applicable yet (e.g. no previous packet,
	// Kalman filter not warmed up); the packet is not counted at all.
	Skip
)

// String returns the outcome name.
func (a Availability) String() string {
	switch a {
	case Available:
		return "Available"
	case Unavailable:
		return "Unavailable"
	case Skip:
		return "Skip"
	default:
		return fmt.Sprintf("Availability(%d)", int(a))
	}
}

// Estimator is one channel-estimation technique evaluated over a
// combination's test set. Estimate is called for every packet in order,
// including the warm-up window, so stateful estimators (Kalman) advance
// exactly as in the paper. Implementations are built per evaluation run and
// must not share mutable state — the parallel engine runs one Estimator per
// (combination × technique) lane, and the lanes of one packet run
// concurrently. Calls on one instance never overlap, though successive
// packets may reach it on different goroutines.
type Estimator interface {
	// Name returns the technique label exactly as the paper uses it.
	Name() string
	// Estimate returns the channel estimate for test packet k.
	Estimate(k int, pkt *dataset.Packet) ([]complex128, Availability, error)
}

// Observer is an optional refinement of [Estimator]: implementations
// absorb per-packet feedback after the packet has been decoded — the
// Kalman filters update on the perfect estimate of the just-received
// packet (paper appendix). The engine calls Observe exactly once per test
// packet, after Estimate, in packet order.
type Observer interface {
	Observe(k int, pkt *dataset.Packet) error
}

// MSEExempt is an optional refinement of [Estimator]: implementations
// returning true are excluded from MSE scoring against the ground truth.
// The ground-truth technique itself is the canonical case (its error
// against itself is zero by construction and would distort Fig. 14).
type MSEExempt interface {
	MSEExempt() bool
}

// builder constructs a fresh Estimator bound to an engine and combination.
// Builders run under the engine's model caches, so expensive artifacts (VVD
// training, Kalman fits) are shared across concurrent builds.
type builder func(e *Engine, cb dataset.Combination) (Estimator, error)

// builders maps each name in core.AllTechniques to its builder. The table
// is fixed: Evaluate resolves technique names here, while ablations and
// tests that score other estimators hand them to the lane loop directly.
var builders = map[string]builder{
	core.TechStandard: func(e *Engine, cb dataset.Combination) (Estimator, error) {
		return staticEstimator{name: core.TechStandard, est: func(pkt *dataset.Packet) ([]complex128, Availability) {
			return nil, Available // nil estimate = standard decoding
		}}, nil
	},
	core.TechGroundTruth: func(e *Engine, cb dataset.Combination) (Estimator, error) {
		return groundTruthEstimator{}, nil
	},
	core.TechPreamble: func(e *Engine, cb dataset.Combination) (Estimator, error) {
		return staticEstimator{name: core.TechPreamble, est: func(pkt *dataset.Packet) ([]complex128, Availability) {
			if !pkt.PreambleDetected {
				// Missed preamble: the packet is assumed erroneous.
				return nil, Unavailable
			}
			return pkt.PreambleEst, Available
		}}, nil
	},
	core.TechPreambleGenie: func(e *Engine, cb dataset.Combination) (Estimator, error) {
		return staticEstimator{name: core.TechPreambleGenie, est: func(pkt *dataset.Packet) ([]complex128, Availability) {
			return pkt.PreambleEst, Available
		}}, nil
	},
	core.TechPrev100ms:      previousBuilder(core.TechPrev100ms, 1),
	core.TechPrev500ms:      previousBuilder(core.TechPrev500ms, 5),
	core.TechKalmanAR1:      kalmanBuilder(core.TechKalmanAR1, 1),
	core.TechKalmanAR5:      kalmanBuilder(core.TechKalmanAR5, 5),
	core.TechKalmanAR20:     kalmanBuilder(core.TechKalmanAR20, 20),
	core.TechVVDCurrent:     vvdBuilder(core.TechVVDCurrent, dataset.LagCurrent),
	core.TechVVD33msFuture:  vvdBuilder(core.TechVVD33msFuture, dataset.Lag33ms),
	core.TechVVD100msFuture: vvdBuilder(core.TechVVD100msFuture, dataset.Lag100ms),
	core.TechCombinedVVD: func(e *Engine, cb dataset.Combination) (Estimator, error) {
		v, err := e.VVDFor(cb, dataset.LagCurrent)
		if err != nil {
			return nil, err
		}
		return &combinedVVDEstimator{v: v}, nil
	},
	core.TechCombinedKalman: func(e *Engine, cb dataset.Combination) (Estimator, error) {
		k, err := e.KalmanFor(cb, 20)
		if err != nil {
			return nil, err
		}
		return &combinedKalmanEstimator{kal: k}, nil
	},
}

// staticEstimator derives its estimate from the packet record alone.
type staticEstimator struct {
	name string
	est  func(pkt *dataset.Packet) ([]complex128, Availability)
}

func (s staticEstimator) Name() string { return s.name }

func (s staticEstimator) Estimate(k int, pkt *dataset.Packet) ([]complex128, Availability, error) {
	h, av := s.est(pkt)
	return h, av, nil
}

// groundTruthEstimator decodes with the whole-packet LS estimate ("Perfect
// Channel Estimation", paper §5.2). Its MSE against itself is meaningless,
// hence the exemption.
type groundTruthEstimator struct{}

func (groundTruthEstimator) Name() string    { return core.TechGroundTruth }
func (groundTruthEstimator) MSEExempt() bool { return true }

func (groundTruthEstimator) Estimate(k int, pkt *dataset.Packet) ([]complex128, Availability, error) {
	return pkt.Perfect, Available, nil
}

// agedEstimator decodes test packet k with an estimate of the packet age
// intervals earlier, computed by est: "100ms/500ms Previous" reuse its
// aligned perfect estimate (paper §5.2), and the aging study (Figs. 16–17)
// its preamble or VVD-Current estimate. Packets with no such predecessor
// are skipped.
type agedEstimator struct {
	name string
	age  int
	test []*dataset.Packet
	est  func(old *dataset.Packet) ([]complex128, error)
}

func previousBuilder(name string, age int) builder {
	return func(e *Engine, cb dataset.Combination) (Estimator, error) {
		return &agedEstimator{name: name, age: age, test: e.Campaign.TestPackets(cb), est: func(old *dataset.Packet) ([]complex128, error) {
			return old.PerfectAligned, nil
		}}, nil
	}
}

func (a *agedEstimator) Name() string { return a.name }

func (a *agedEstimator) Estimate(k int, pkt *dataset.Packet) ([]complex128, Availability, error) {
	if k < a.age {
		return nil, Skip, nil
	}
	h, err := a.est(a.test[k-a.age])
	return h, Available, err
}

// kalmanEstimator predicts the upcoming packet's CIR with per-tap AR(p)
// Kalman filters and absorbs the perfect estimate after each decode (paper
// appendix). Each instance owns a private clone of the fitted model, so
// parallel runs never share filter state.
type kalmanEstimator struct {
	name string
	kal  *kalman.Estimator
}

// kalmanBuilder returns the builder of an AR(order) Kalman technique.
func kalmanBuilder(name string, order int) builder {
	return func(e *Engine, cb dataset.Combination) (Estimator, error) {
		k, err := e.KalmanFor(cb, order)
		if err != nil {
			return nil, err
		}
		return &kalmanEstimator{name: name, kal: k}, nil
	}
}

func (ke *kalmanEstimator) Name() string { return ke.name }

func (ke *kalmanEstimator) Estimate(k int, pkt *dataset.Packet) ([]complex128, Availability, error) {
	// Predict advances the filter state and must run on every packet, even
	// during warm-up, to preserve the paper's update/predict cycle.
	pred, err := ke.kal.Predict()
	if err != nil {
		return nil, Skip, err
	}
	if ke.kal.Seen() == 0 {
		return nil, Skip, nil
	}
	return pred, Available, nil
}

func (ke *kalmanEstimator) Observe(k int, pkt *dataset.Packet) error {
	return ke.kal.Update(pkt.PerfectAligned)
}

// vvdEstimator maps the packet's depth image to a CIR with a trained VVD
// variant. The future variants feed the *older* image that predicts this
// packet's channel (paper §5.3).
type vvdEstimator struct {
	name string
	lag  dataset.ImageLag
	v    *core.VVD
}

// vvdBuilder returns the builder of a VVD variant at the given image lag.
// The trained model comes from the engine's cache (one training run shared
// across goroutines), and every instance estimates on it directly: VVD
// inference is safe for concurrent use.
func vvdBuilder(name string, lag dataset.ImageLag) builder {
	return func(e *Engine, cb dataset.Combination) (Estimator, error) {
		v, err := e.VVDFor(cb, lag)
		if err != nil {
			return nil, err
		}
		return &vvdEstimator{name: name, lag: lag, v: v}, nil
	}
}

func (ve *vvdEstimator) Name() string { return ve.name }

func (ve *vvdEstimator) Estimate(k int, pkt *dataset.Packet) ([]complex128, Availability, error) {
	h, err := ve.v.Estimate(pkt.Images[ve.lag])
	if err != nil {
		return nil, Skip, err
	}
	return h, Available, nil
}

// combinedVVDEstimator is the Fig. 10 flow with the VVD-Current fallback:
// preamble estimate when detected, blind VVD estimate otherwise.
//
// Combined techniques recompute their base model's per-packet work (a
// second VVD inference here, a second Kalman predict/update chain below)
// instead of sharing the base technique's output. That duplication is the
// price of lane isolation: it is what lets every technique lane run on
// its own goroutine with bit-reproducible results, and the extra work
// parallelizes away at Workers > 1.
type combinedVVDEstimator struct {
	v *core.VVD
}

func (ce *combinedVVDEstimator) Name() string { return core.TechCombinedVVD }

func (ce *combinedVVDEstimator) Estimate(k int, pkt *dataset.Packet) ([]complex128, Availability, error) {
	h, err := ce.v.Estimate(pkt.Images[dataset.LagCurrent])
	if err != nil {
		return nil, Skip, err
	}
	return core.Combined(pkt.PreambleDetected, pkt.PreambleEst, h), Available, nil
}

// combinedKalmanEstimator is the Fig. 10 flow with the AR(20) Kalman
// fallback.
type combinedKalmanEstimator struct {
	kal *kalman.Estimator
}

func (ce *combinedKalmanEstimator) Name() string { return core.TechCombinedKalman }

func (ce *combinedKalmanEstimator) Estimate(k int, pkt *dataset.Packet) ([]complex128, Availability, error) {
	pred, err := ce.kal.Predict()
	if err != nil {
		return nil, Skip, err
	}
	if ce.kal.Seen() == 0 && !pkt.PreambleDetected {
		return nil, Unavailable, nil
	}
	return core.Combined(pkt.PreambleDetected, pkt.PreambleEst, pred), Available, nil
}

func (ce *combinedKalmanEstimator) Observe(k int, pkt *dataset.Packet) error {
	return ce.kal.Update(pkt.PerfectAligned)
}
