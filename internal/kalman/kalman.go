// Package kalman implements the Kalman-filtering-based channel estimation
// baseline of the paper (appendix): each CIR tap is modelled as an AR(p)
// process whose coefficients come from Yule-Walker equations over the
// training-set channel estimates; a per-tap Kalman filter then predicts the
// next packet's tap blindly and is updated with the perfect channel
// estimate once the packet has been observed.
package kalman

import (
	"errors"
	"fmt"

	"vvd/internal/mathx"
)

// ErrNoTraining is returned when Fit receives an unusable series.
var ErrNoTraining = errors.New("kalman: training series too short for requested order")

// tapFilter is the Kalman filter of one CIR tap with AR(p) state
// [hᵏ, hᵏ⁻¹, …, hᵏ⁻ᵖ⁺¹].
type tapFilter struct {
	p   int
	phi *mathx.Matrix // companion transition matrix (p×p)
	x   []complex128  // state estimate
	cov *mathx.Matrix // error covariance P
	q   *mathx.Matrix // process noise covariance Q
	u   *mathx.Matrix // observation noise covariance U
}

func newTapFilter(phi []complex128, noiseVar float64, obsVar float64) *tapFilter {
	p := len(phi)
	tr := mathx.NewMatrix(p, p)
	for j, c := range phi {
		tr.Set(0, j, c)
	}
	for i := 1; i < p; i++ {
		tr.Set(i, i-1, 1)
	}
	q := mathx.NewMatrix(p, p)
	q.Set(0, 0, complex(noiseVar, 0))
	u := mathx.NewMatrix(p, p)
	cov := mathx.NewMatrix(p, p)
	for i := 0; i < p; i++ {
		u.Set(i, i, complex(obsVar, 0))
		cov.Set(i, i, complex(noiseVar+obsVar+1e-12, 0))
	}
	return &tapFilter{
		p:   p,
		phi: tr,
		x:   make([]complex128, p),
		cov: cov,
		q:   q,
		u:   u,
	}
}

// update runs the Kalman update step (paper Eq. 15–17) with the observed
// state vector z (the latest p perfect estimates, newest first).
func (f *tapFilter) update(z []complex128) error {
	// K = P(P+U)⁻¹
	sum, err := f.cov.Add(f.u)
	if err != nil {
		return err
	}
	inv, err := mathx.Inverse(sum)
	if err != nil {
		return err
	}
	k, err := f.cov.Mul(inv)
	if err != nil {
		return err
	}
	// x ← x + K(z − x)
	innov := make([]complex128, f.p)
	for i := range innov {
		innov[i] = z[i] - f.x[i]
	}
	corr, err := k.MulVec(innov)
	if err != nil {
		return err
	}
	for i := range f.x {
		f.x[i] += corr[i]
	}
	// P ← (I − K)P
	ik, err := mathx.Identity(f.p).Sub(k)
	if err != nil {
		return err
	}
	f.cov, err = ik.Mul(f.cov)
	return err
}

// predict runs the prediction step (paper Eq. 18–19) and returns the
// predicted current tap value.
func (f *tapFilter) predict() (complex128, error) {
	x, err := f.phi.MulVec(f.x)
	if err != nil {
		return 0, err
	}
	f.x = x
	pp, err := f.phi.Mul(f.cov)
	if err != nil {
		return 0, err
	}
	pp, err = pp.Mul(f.phi.Hermitian())
	if err != nil {
		return 0, err
	}
	f.cov, err = pp.Add(f.q)
	if err != nil {
		return 0, err
	}
	return f.x[0], nil
}

// Estimator is the full-CIR Kalman estimator: independent AR(p) filters per
// tap (WSSUS assumption: taps fade independently, paper footnote 12).
type Estimator struct {
	Order   int
	Taps    int
	filters []*tapFilter
	// history holds the last p observed (perfect) estimates per tap,
	// newest first, forming the observation vector.
	history [][]complex128
	seen    int
}

// Fit estimates per-tap AR(p) coefficients from a training series of CIRs
// (each series[k] is the phase-aligned perfect estimate of packet k) and
// returns a ready estimator. obsVar is the assumed observation noise of the
// perfect estimates (kept small, per the paper's footnote 13).
func Fit(series [][]complex128, order int, obsVar float64) (*Estimator, error) {
	if order <= 0 {
		return nil, fmt.Errorf("kalman: order must be positive, got %d", order)
	}
	if len(series) <= order+1 {
		return nil, fmt.Errorf("%w: %d CIRs for AR(%d)", ErrNoTraining, len(series), order)
	}
	taps := len(series[0])
	if taps == 0 {
		return nil, errors.New("kalman: empty CIR in training series")
	}
	for _, h := range series {
		if len(h) != taps {
			return nil, errors.New("kalman: inconsistent CIR lengths in training series")
		}
	}
	est := &Estimator{Order: order, Taps: taps}
	est.filters = make([]*tapFilter, taps)
	est.history = make([][]complex128, taps)
	for l := 0; l < taps; l++ {
		tapSeries := make([]complex128, len(series))
		var mean complex128
		for k, h := range series {
			tapSeries[k] = h[l]
			mean += h[l]
		}
		// Yule-Walker on the centred series is more stable; the AR model
		// tracks deviations while the mean is re-added by the filter state
		// naturally through updates.
		phi, noiseVar, err := mathx.YuleWalker(tapSeries, order)
		if err != nil {
			return nil, fmt.Errorf("kalman: tap %d: %w", l, err)
		}
		if noiseVar <= 0 {
			noiseVar = 1e-12
		}
		est.filters[l] = newTapFilter(phi, noiseVar, obsVar)
		est.history[l] = make([]complex128, order)
	}
	return est, nil
}

// Update feeds the perfect channel estimate of the just-received packet
// into every tap filter (the filter's update step).
func (e *Estimator) Update(h []complex128) error {
	if len(h) != e.Taps {
		return fmt.Errorf("kalman: Update with %d taps, fitted for %d", len(h), e.Taps)
	}
	for l, f := range e.filters {
		// Shift the observation history: newest first.
		hist := e.history[l]
		copy(hist[1:], hist)
		hist[0] = h[l]
		if err := f.update(hist); err != nil {
			return fmt.Errorf("kalman: tap %d update: %w", l, err)
		}
	}
	e.seen++
	return nil
}

// Predict advances every tap filter one packet ahead and returns the
// predicted CIR (the blind estimate for the upcoming packet).
func (e *Estimator) Predict() ([]complex128, error) {
	out := make([]complex128, e.Taps)
	for l, f := range e.filters {
		v, err := f.predict()
		if err != nil {
			return nil, fmt.Errorf("kalman: tap %d predict: %w", l, err)
		}
		out[l] = v
	}
	return out, nil
}

// Seen returns how many updates the estimator has absorbed (the paper
// skips the first 200 packets to let the filter converge).
func (e *Estimator) Seen() int { return e.seen }

// PredictionMSE is a convenience that runs the estimator over a series
// (update with k, predict k+1) and returns the mean squared prediction
// error against the series itself. Useful for model-order comparisons.
func PredictionMSE(series [][]complex128, order int, obsVar float64, skip int) (float64, error) {
	est, err := Fit(series, order, obsVar)
	if err != nil {
		return 0, err
	}
	var sum float64
	var n int
	for k := 0; k < len(series)-1; k++ {
		if err := est.Update(series[k]); err != nil {
			return 0, err
		}
		pred, err := est.Predict()
		if err != nil {
			return 0, err
		}
		if k < skip {
			continue
		}
		for l := range pred {
			d := pred[l] - series[k+1][l]
			sum += real(d)*real(d) + imag(d)*imag(d)
		}
		n += len(pred)
	}
	if n == 0 {
		return 0, errors.New("kalman: series too short for PredictionMSE")
	}
	return sum / float64(n), nil
}

// NaiveMSE returns the MSE of the "previous estimate" predictor on the same
// series, the baseline Kalman must beat on correlated channels.
func NaiveMSE(series [][]complex128, skip int) float64 {
	var sum float64
	var n int
	for k := skip; k < len(series)-1; k++ {
		for l := range series[k] {
			d := series[k][l] - series[k+1][l]
			sum += real(d)*real(d) + imag(d)*imag(d)
		}
		n += len(series[k])
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Reset clears the filter state (covariances are re-inflated) so the same
// fitted model can be replayed on a fresh test sequence.
func (e *Estimator) Reset() {
	for l, f := range e.filters {
		for i := range f.x {
			f.x[i] = 0
		}
		for i := 0; i < f.p; i++ {
			for j := 0; j < f.p; j++ {
				var v complex128
				if i == j {
					v = f.q.At(0, 0) + f.u.At(i, i) + 1e-12
				}
				f.cov.Set(i, j, v)
			}
		}
		for i := range e.history[l] {
			e.history[l][i] = 0
		}
	}
	e.seen = 0
}

// clone deep-copies the mutable filter state (state vector and error
// covariance); the transition and noise matrices are immutable after
// construction and shared with the original.
func (f *tapFilter) clone() *tapFilter {
	x := make([]complex128, len(f.x))
	copy(x, f.x)
	return &tapFilter{p: f.p, phi: f.phi, x: x, cov: f.cov.Clone(), q: f.q, u: f.u}
}

// Clone returns an independent estimator with the same fitted AR model and
// a copy of the current filter state. Clones never share mutable state, so
// each can be advanced (Predict/Update) concurrently with the original —
// the replacement for replaying one shared instance via Reset.
func (e *Estimator) Clone() *Estimator {
	cp := &Estimator{Order: e.Order, Taps: e.Taps, seen: e.seen}
	cp.filters = make([]*tapFilter, len(e.filters))
	for i, f := range e.filters {
		cp.filters[i] = f.clone()
	}
	cp.history = make([][]complex128, len(e.history))
	for i, h := range e.history {
		cp.history[i] = make([]complex128, len(h))
		copy(cp.history[i], h)
	}
	return cp
}

// Norm2Error returns ‖a−b‖² — helper shared by tests and experiments.
func Norm2Error(a, b []complex128) float64 {
	var s float64
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		s += real(d)*real(d) + imag(d)*imag(d)
	}
	return s
}
