package experiments

import (
	"vvd/internal/core"
	"vvd/internal/dataset"
	"vvd/internal/kalman"
)

// This file implements the 14 techniques of the paper's evaluation (§5) as
// registry entries. Each implementation is a small, self-contained
// Estimator; the engine never special-cases a technique.

func init() {
	Register(core.TechStandard, func(e *Engine, cb dataset.Combination) (Estimator, error) {
		return staticEstimator{name: core.TechStandard, est: func(pkt *dataset.Packet) ([]complex128, Availability) {
			return nil, Available // nil estimate = standard decoding
		}}, nil
	})
	Register(core.TechGroundTruth, func(e *Engine, cb dataset.Combination) (Estimator, error) {
		return groundTruthEstimator{}, nil
	})
	Register(core.TechPreamble, func(e *Engine, cb dataset.Combination) (Estimator, error) {
		return staticEstimator{name: core.TechPreamble, est: func(pkt *dataset.Packet) ([]complex128, Availability) {
			if !pkt.PreambleDetected {
				// Missed preamble: the packet is assumed erroneous.
				return nil, Unavailable
			}
			return pkt.PreambleEst, Available
		}}, nil
	})
	Register(core.TechPreambleGenie, func(e *Engine, cb dataset.Combination) (Estimator, error) {
		return staticEstimator{name: core.TechPreambleGenie, est: func(pkt *dataset.Packet) ([]complex128, Availability) {
			return pkt.PreambleEst, Available
		}}, nil
	})
	Register(core.TechPrev100ms, previousBuilder(core.TechPrev100ms, 1))
	Register(core.TechPrev500ms, previousBuilder(core.TechPrev500ms, 5))
	Register(core.TechKalmanAR1, KalmanBuilder(core.TechKalmanAR1, 1))
	Register(core.TechKalmanAR5, KalmanBuilder(core.TechKalmanAR5, 5))
	Register(core.TechKalmanAR20, KalmanBuilder(core.TechKalmanAR20, 20))
	Register(core.TechVVDCurrent, VVDBuilder(core.TechVVDCurrent, dataset.LagCurrent))
	Register(core.TechVVD33msFuture, VVDBuilder(core.TechVVD33msFuture, dataset.Lag33ms))
	Register(core.TechVVD100msFuture, VVDBuilder(core.TechVVD100msFuture, dataset.Lag100ms))
	Register(core.TechCombinedVVD, func(e *Engine, cb dataset.Combination) (Estimator, error) {
		v, err := e.VVDFor(cb, dataset.LagCurrent)
		if err != nil {
			return nil, err
		}
		return &combinedVVDEstimator{v: v}, nil
	})
	Register(core.TechCombinedKalman, func(e *Engine, cb dataset.Combination) (Estimator, error) {
		k, err := e.KalmanFor(cb, 20)
		if err != nil {
			return nil, err
		}
		return &combinedKalmanEstimator{kal: k}, nil
	})
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

// previousEstimator reuses the aligned perfect estimate of the packet n
// intervals earlier ("100ms/500ms Previous", paper §5.2).
type previousEstimator struct {
	name string
	n    int
	test []*dataset.Packet
}

func previousBuilder(name string, n int) Builder {
	return func(e *Engine, cb dataset.Combination) (Estimator, error) {
		return &previousEstimator{name: name, n: n, test: e.Campaign.TestPackets(cb)}, nil
	}
}

func (p *previousEstimator) Name() string { return p.name }

func (p *previousEstimator) Estimate(k int, pkt *dataset.Packet) ([]complex128, Availability, error) {
	if k < p.n {
		return nil, Skip, nil
	}
	return p.test[k-p.n].PerfectAligned, Available, nil
}

// kalmanEstimator predicts the upcoming packet's CIR with per-tap AR(p)
// Kalman filters and absorbs the perfect estimate after each decode (paper
// appendix). Each instance owns a private clone of the fitted model, so
// parallel runs never share filter state.
type kalmanEstimator struct {
	name string
	kal  *kalman.Estimator
}

// KalmanBuilder returns a Builder for an AR(order) Kalman technique. New
// orders beyond the paper's 1/5/20 are one Register call away.
func KalmanBuilder(name string, order int) Builder {
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

// VVDBuilder returns a Builder for a VVD variant at the given image lag.
// The trained model comes from the engine's cache (one training run shared
// across goroutines), and every instance estimates on it directly: VVD
// inference is safe for concurrent use.
func VVDBuilder(name string, lag dataset.ImageLag) Builder {
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
