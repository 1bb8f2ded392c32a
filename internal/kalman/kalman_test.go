package kalman

import (
	"math"
	"math/rand/v2"
	"testing"

	"vvd/internal/channel"
	"vvd/internal/phy"
	"vvd/internal/room"
)

// synthAR builds a multi-tap CIR series where each tap follows AR(1) with
// the given coefficient.
func synthAR(n, taps int, phi complex128, noise float64, seed uint64) [][]complex128 {
	rng := rand.New(rand.NewPCG(seed, seed+3))
	series := make([][]complex128, n)
	state := make([]complex128, taps)
	for i := range state {
		state[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	for k := range series {
		h := make([]complex128, taps)
		for l := range h {
			w := complex(rng.NormFloat64(), rng.NormFloat64()) * complex(noise, 0)
			state[l] = phi*state[l] + w
			h[l] = state[l]
		}
		series[k] = h
	}
	return series
}

func TestFitRejectsBadInput(t *testing.T) {
	if _, err := Fit(nil, 1, 1e-6); err == nil {
		t.Fatal("empty series accepted")
	}
	if _, err := Fit(synthAR(3, 2, 0.5, 0.1, 1), 5, 1e-6); err == nil {
		t.Fatal("series shorter than order accepted")
	}
	if _, err := Fit(synthAR(10, 2, 0.5, 0.1, 1), 0, 1e-6); err == nil {
		t.Fatal("zero order accepted")
	}
	ragged := synthAR(10, 3, 0.5, 0.1, 1)
	ragged[4] = ragged[4][:2]
	if _, err := Fit(ragged, 1, 1e-6); err == nil {
		t.Fatal("ragged series accepted")
	}
}

func TestPredictTracksAR1(t *testing.T) {
	series := synthAR(3000, 4, 0.95, 0.05, 7)
	est, err := Fit(series[:2000], 1, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	var predErr, naiveZero float64
	for k := 2000; k < 2999; k++ {
		if err := est.Update(series[k]); err != nil {
			t.Fatal(err)
		}
		pred, err := est.Predict()
		if err != nil {
			t.Fatal(err)
		}
		predErr += Norm2Error(pred, series[k+1])
		naiveZero += Norm2Error(make([]complex128, 4), series[k+1])
	}
	if predErr >= naiveZero/4 {
		t.Fatalf("Kalman prediction error %v not clearly below zero-predictor %v", predErr, naiveZero)
	}
}

func TestPredictBeatsNaiveOnSmoothSeries(t *testing.T) {
	// For a strongly correlated AR(1) with φ < 1, the Kalman one-step
	// predictor must beat the "repeat last value" predictor.
	series := synthAR(4000, 3, 0.7, 0.2, 11)
	mse, err := PredictionMSE(series, 1, 1e-6, 200)
	if err != nil {
		t.Fatal(err)
	}
	naive := NaiveMSE(series, 200)
	if mse >= naive {
		t.Fatalf("Kalman MSE %v not below naive %v", mse, naive)
	}
}

func TestHigherOrderNotWorseOnAR2(t *testing.T) {
	// Build an AR(2) process; AR(2) fit should beat AR(1) fit.
	rng := rand.New(rand.NewPCG(13, 14))
	n, taps := 5000, 2
	series := make([][]complex128, n)
	s1 := make([]complex128, taps)
	s2 := make([]complex128, taps)
	for k := range series {
		h := make([]complex128, taps)
		for l := range h {
			w := complex(rng.NormFloat64(), rng.NormFloat64()) * 0.1
			v := complex(1.2, 0)*s1[l] - complex(0.5, 0)*s2[l] + w
			s2[l], s1[l] = s1[l], v
			h[l] = v
		}
		series[k] = h
	}
	mse1, err := PredictionMSE(series, 1, 1e-6, 200)
	if err != nil {
		t.Fatal(err)
	}
	mse2, err := PredictionMSE(series, 2, 1e-6, 200)
	if err != nil {
		t.Fatal(err)
	}
	if mse2 > mse1 {
		t.Fatalf("AR(2) MSE %v worse than AR(1) %v on an AR(2) process", mse2, mse1)
	}
}

func TestUpdateWrongTapCount(t *testing.T) {
	est, err := Fit(synthAR(100, 3, 0.5, 0.1, 17), 1, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if err := est.Update(make([]complex128, 5)); err == nil {
		t.Fatal("wrong tap count accepted")
	}
}

func TestSeenCounts(t *testing.T) {
	series := synthAR(100, 2, 0.5, 0.1, 19)
	est, err := Fit(series, 1, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		if err := est.Update(series[k]); err != nil {
			t.Fatal(err)
		}
	}
	if est.Seen() != 10 {
		t.Fatalf("Seen = %d want 10", est.Seen())
	}
}

func TestResetClearsState(t *testing.T) {
	series := synthAR(300, 2, 0.9, 0.1, 23)
	est, err := Fit(series, 2, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 100; k++ {
		if err := est.Update(series[k]); err != nil {
			t.Fatal(err)
		}
	}
	est.Reset()
	if est.Seen() != 0 {
		t.Fatal("Seen not reset")
	}
	pred, err := est.Predict()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range pred {
		if v != 0 {
			t.Fatal("prediction from zero state must be zero")
		}
	}
}

func TestCloneIndependentState(t *testing.T) {
	series := synthAR(200, 3, 0.9, 0.1, 5)
	est, err := Fit(series[:100], 2, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	// Advance the original a bit, clone, then diverge the two.
	for k := 100; k < 110; k++ {
		if err := est.Update(series[k]); err != nil {
			t.Fatal(err)
		}
		if _, err := est.Predict(); err != nil {
			t.Fatal(err)
		}
	}
	cp := est.Clone()
	if cp.Seen() != est.Seen() {
		t.Fatalf("clone seen %d want %d", cp.Seen(), est.Seen())
	}
	// Both replay the same future: identical predictions.
	for k := 110; k < 130; k++ {
		if err := est.Update(series[k]); err != nil {
			t.Fatal(err)
		}
		if err := cp.Update(series[k]); err != nil {
			t.Fatal(err)
		}
		a, err := est.Predict()
		if err != nil {
			t.Fatal(err)
		}
		b, err := cp.Predict()
		if err != nil {
			t.Fatal(err)
		}
		if Norm2Error(a, b) != 0 {
			t.Fatalf("clone diverged from original at packet %d", k)
		}
	}
	// Mutating the clone must not touch the original.
	if err := cp.Update(series[130]); err != nil {
		t.Fatal(err)
	}
	if cp.Seen() == est.Seen() {
		t.Fatal("clone Update leaked into original's seen counter")
	}
}

func TestCloneConcurrentAdvance(t *testing.T) {
	series := synthAR(300, 3, 0.9, 0.1, 9)
	est, err := Fit(series[:100], 1, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	ref := est.Clone()
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func() {
			cp := est.Clone()
			for k := 100; k < 300; k++ {
				if err := cp.Update(series[k]); err != nil {
					done <- err
					return
				}
				if _, err := cp.Predict(); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// Pristine original untouched by the concurrent clones.
	if est.Seen() != ref.Seen() {
		t.Fatal("concurrent clones mutated the original")
	}
}

func TestReplayDeterministic(t *testing.T) {
	series := synthAR(500, 3, 0.8, 0.1, 29)
	est, err := Fit(series[:300], 2, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	run := func() []complex128 {
		est.Reset()
		var last []complex128
		for k := 300; k < 400; k++ {
			if err := est.Update(series[k]); err != nil {
				t.Fatal(err)
			}
			last, err = est.Predict()
			if err != nil {
				t.Fatal(err)
			}
		}
		return last
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] { //vvdlint:bitexact -- clone replay parity is bitwise
			t.Fatal("replay after Reset differs")
		}
	}
}

func TestKalmanOnSimulatedChannelSeries(t *testing.T) {
	// End-to-end: fit on CIRs from a walking human, predict on a held-out
	// continuation — Kalman must beat the zero predictor and roughly track
	// the naive predictor (channel is nearly memoryless at 100 ms spacing,
	// the paper's own observation in Fig. 11).
	g := channel.NewGeometry(room.DefaultLab(), phy.Wavelength)
	m := channel.NewModel(g, phy.SampleRate)
	rng := rand.New(rand.NewPCG(31, 32))
	w := room.NewWalker(g.Room.MovementArea, room.DefaultMobility(), rng)
	series := make([][]complex128, 700)
	for k := range series {
		pos := w.Step(0.1)
		series[k] = m.CIR(room.DefaultHuman(pos))
	}
	mse, err := PredictionMSE(series, 5, 1e-9, 200)
	if err != nil {
		t.Fatal(err)
	}
	var zero float64
	var n int
	for k := 200; k < len(series)-1; k++ {
		zero += Norm2Error(make([]complex128, m.Taps), series[k+1])
		n += m.Taps
	}
	zero /= float64(n)
	if mse >= zero {
		t.Fatalf("Kalman MSE %v not below zero-predictor %v on channel series", mse, zero)
	}
}

func TestNorm2Error(t *testing.T) {
	got := Norm2Error([]complex128{1, 2}, []complex128{1, 2 + 1i})
	if math.Abs(got-1) > 1e-12 {
		t.Fatalf("Norm2Error = %v want 1", got)
	}
}
