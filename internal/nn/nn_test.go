package nn

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"
)

func randInput(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// numericalGrad estimates ∂loss/∂θ by central differences.
func numericalGrad(t *testing.T, net *Network, x, y []float64, p *Param, i int) float64 {
	t.Helper()
	const eps = 1e-6
	orig := p.W[i]
	lossAt := func(v float64) float64 {
		p.W[i] = v
		out, err := net.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		l, err := MSE(out, y, nil)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	plus := lossAt(orig + eps)
	minus := lossAt(orig - eps)
	p.W[i] = orig
	return (plus - minus) / (2 * eps)
}

func gradCheck(t *testing.T, net *Network, inSize, outSize int, seed uint64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed+1))
	x := randInput(rng, inSize)
	y := randInput(rng, outSize)
	out, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	grad := make([]float64, len(out))
	if _, err := MSE(out, y, grad); err != nil {
		t.Fatal(err)
	}
	net.ZeroGrad()
	// Re-run forward to refresh caches (numericalGrad perturbed them).
	if _, err := net.Forward(x); err != nil {
		t.Fatal(err)
	}
	net.Backward(grad)
	for pi, p := range net.Params() {
		step := len(p.W)/5 + 1
		for i := 0; i < len(p.W); i += step {
			got := p.G[i]
			want := numericalGrad(t, net, x, y, p, i)
			scale := math.Max(1e-3, math.Abs(want))
			if math.Abs(got-want)/scale > 1e-4 {
				t.Fatalf("param %d index %d: analytic %v numeric %v", pi, i, got, want)
			}
		}
	}
}

func TestGradCheckDense(t *testing.T) {
	net, err := NewNetwork(Shape{1, 1, 7}, rand.New(rand.NewPCG(1, 2)),
		NewDense(5), NewReLU(), NewDense(3))
	if err != nil {
		t.Fatal(err)
	}
	gradCheck(t, net, 7, 3, 10)
}

func TestGradCheckConv(t *testing.T) {
	net, err := NewNetwork(Shape{6, 7, 2}, rand.New(rand.NewPCG(3, 4)),
		NewConv2D(3, 3, 4), NewReLU(), NewFlatten(), NewDense(3))
	if err != nil {
		t.Fatal(err)
	}
	gradCheck(t, net, 6*7*2, 3, 20)
}

func TestGradCheckAvgPool(t *testing.T) {
	net, err := NewNetwork(Shape{6, 6, 2}, rand.New(rand.NewPCG(5, 6)),
		NewConv2D(3, 3, 3), NewPool2D(AvgPool), NewReLU(), NewFlatten(), NewDense(2))
	if err != nil {
		t.Fatal(err)
	}
	gradCheck(t, net, 6*6*2, 2, 30)
}

func TestGradCheckMaxPool(t *testing.T) {
	net, err := NewNetwork(Shape{6, 6, 1}, rand.New(rand.NewPCG(7, 8)),
		NewConv2D(3, 3, 2), NewPool2D(MaxPool), NewFlatten(), NewDense(2))
	if err != nil {
		t.Fatal(err)
	}
	gradCheck(t, net, 36, 2, 40)
}

func TestGradCheckDeepStack(t *testing.T) {
	// The paper-shaped stack in miniature: conv-relu-pool ×2 then dense.
	net, err := NewNetwork(Shape{10, 12, 1}, rand.New(rand.NewPCG(9, 10)),
		NewConv2D(3, 3, 4), NewReLU(), NewPool2D(AvgPool),
		NewConv2D(3, 3, 6), NewReLU(),
		NewFlatten(), NewDense(8), NewReLU(), NewDense(4))
	if err != nil {
		t.Fatal(err)
	}
	gradCheck(t, net, 120, 4, 50)
}

func TestShapePropagation(t *testing.T) {
	// 50×90 input through the paper's Fig. 8 stack.
	net, err := NewNetwork(Shape{50, 90, 1}, rand.New(rand.NewPCG(11, 12)),
		NewConv2D(3, 3, 8), NewReLU(), NewPool2D(AvgPool),
		NewConv2D(3, 3, 8), NewReLU(), NewPool2D(AvgPool),
		NewConv2D(3, 3, 16), NewReLU(), NewPool2D(AvgPool),
		NewConv2D(3, 3, 16), NewReLU(),
		NewFlatten(), NewDense(64), NewReLU(), NewDense(22))
	if err != nil {
		t.Fatal(err)
	}
	if net.Out != (Shape{1, 1, 22}) {
		t.Fatalf("out shape %s want 1x1x22", net.Out)
	}
	x := randInput(rand.New(rand.NewPCG(1, 1)), 50*90)
	out, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 22 {
		t.Fatalf("output len %d", len(out))
	}
}

func TestConvTooSmallInput(t *testing.T) {
	if _, err := NewNetwork(Shape{2, 2, 1}, nil, NewConv2D(3, 3, 2)); err == nil {
		t.Fatal("kernel larger than input accepted")
	}
}

func TestDenseRequiresFlatten(t *testing.T) {
	if _, err := NewNetwork(Shape{4, 4, 1}, nil, NewDense(3)); err == nil {
		t.Fatal("Dense on unflattened input accepted")
	}
}

func TestForwardSizeMismatch(t *testing.T) {
	net, err := NewNetwork(Shape{1, 1, 4}, rand.New(rand.NewPCG(1, 2)), NewDense(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Forward([]float64{1, 2}); err == nil {
		t.Fatal("wrong input size accepted")
	}
}

func TestMSE(t *testing.T) {
	grad := make([]float64, 2)
	loss, err := MSE([]float64{1, 3}, []float64{0, 1}, grad)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(loss-2.5) > 1e-12 {
		t.Fatalf("loss = %v want 2.5", loss)
	}
	if math.Abs(grad[0]-1) > 1e-12 || math.Abs(grad[1]-2) > 1e-12 {
		t.Fatalf("grad = %v", grad)
	}
	if _, err := MSE([]float64{1}, []float64{1, 2}, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestReLUForwardBackward(t *testing.T) {
	r := NewReLU()
	out := r.Forward([]float64{-1, 0, 2})
	if out[0] != 0 || out[1] != 0 || out[2] != 2 {
		t.Fatalf("relu out = %v", out)
	}
	g := r.Backward([]float64{5, 5, 5})
	if g[0] != 0 || g[1] != 0 || g[2] != 5 {
		t.Fatalf("relu grad = %v", g)
	}
}

func TestPoolingValues(t *testing.T) {
	avg := NewPool2D(AvgPool)
	if _, err := avg.OutShape(Shape{2, 2, 1}); err != nil {
		t.Fatal(err)
	}
	out := avg.Forward([]float64{1, 2, 3, 4})
	if out[0] != 2.5 {
		t.Fatalf("avg = %v", out[0])
	}
	max := NewPool2D(MaxPool)
	if _, err := max.OutShape(Shape{2, 2, 1}); err != nil {
		t.Fatal(err)
	}
	out = max.Forward([]float64{1, 2, 3, 4})
	if out[0] != 4 {
		t.Fatalf("max = %v", out[0])
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	// Learn a linear map with a small dense network.
	rng := rand.New(rand.NewPCG(13, 14))
	mk := func(n int) []Sample {
		out := make([]Sample, n)
		for i := range out {
			x := randInput(rng, 6)
			y := []float64{x[0] + 0.5*x[1], x[2] - x[3]}
			out[i] = Sample{X: x, Y: y}
		}
		return out
	}
	train, val := mk(256), mk(64)
	net, err := NewNetwork(Shape{1, 1, 6}, rng, NewDense(16), NewReLU(), NewDense(2))
	if err != nil {
		t.Fatal(err)
	}
	opt := NewNadam()
	opt.LR = 3e-3
	hist, err := Fit(net, opt, train, val, TrainConfig{Epochs: 40, BatchSize: 16, Workers: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	first, last := hist.ValLoss[0], hist.BestVal
	if last > first/5 {
		t.Fatalf("training barely improved: first %v best %v", first, last)
	}
}

func TestTrainingConvergesOnConvTask(t *testing.T) {
	// Predict the mean of an image patch: a task conv+pool can nail.
	rng := rand.New(rand.NewPCG(15, 16))
	mk := func(n int) []Sample {
		out := make([]Sample, n)
		for i := range out {
			x := randInput(rng, 8*8)
			var mean float64
			for _, v := range x {
				mean += v
			}
			mean /= 64
			out[i] = Sample{X: x, Y: []float64{mean}}
		}
		return out
	}
	train, val := mk(200), mk(50)
	net, err := NewNetwork(Shape{8, 8, 1}, rng,
		NewConv2D(3, 3, 4), NewReLU(), NewPool2D(AvgPool),
		NewFlatten(), NewDense(8), NewReLU(), NewDense(1))
	if err != nil {
		t.Fatal(err)
	}
	opt := NewNadam()
	opt.LR = 2e-3
	hist, err := Fit(net, opt, train, val, TrainConfig{Epochs: 30, BatchSize: 16, Workers: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if hist.BestVal > hist.ValLoss[0]/2 {
		t.Fatalf("conv task did not converge: first %v best %v", hist.ValLoss[0], hist.BestVal)
	}
}

func TestBestWeightsRestored(t *testing.T) {
	// After Fit, the network must hold the best-validation weights: its
	// val loss must equal hist.BestVal.
	rng := rand.New(rand.NewPCG(17, 18))
	mk := func(n int) []Sample {
		out := make([]Sample, n)
		for i := range out {
			x := randInput(rng, 4)
			out[i] = Sample{X: x, Y: []float64{x[0] * 2}}
		}
		return out
	}
	train, val := mk(64), mk(32)
	net, err := NewNetwork(Shape{1, 1, 4}, rng, NewDense(8), NewReLU(), NewDense(1))
	if err != nil {
		t.Fatal(err)
	}
	hist, err := Fit(net, NewNadam(), train, val, TrainConfig{Epochs: 5, BatchSize: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Evaluate(net, val)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-hist.BestVal) > 1e-9 {
		t.Fatalf("restored val loss %v != best %v", got, hist.BestVal)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 20))
	net, err := NewNetwork(Shape{10, 10, 1}, rng,
		NewConv2D(3, 3, 3), NewReLU(), NewPool2D(AvgPool),
		NewConv2D(2, 2, 4), NewPool2D(MaxPool),
		NewFlatten(), NewDense(5), NewReLU(), NewDense(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := randInput(rng, 100)
	a, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatalf("output %d differs after load: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte{1, 2, 3, 4, 5})); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestCloneSharesWeights(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	net, err := NewNetwork(Shape{1, 1, 3}, rng, NewDense(4), NewReLU(), NewDense(2))
	if err != nil {
		t.Fatal(err)
	}
	clone := net.Clone()
	// Mutating master weights must be visible in the clone.
	net.Params()[0].W[0] = 42
	if clone.Params()[0].W[0] != 42 {
		t.Fatal("clone does not share weights")
	}
	// Gradients must be private.
	clone.Params()[0].grad()[0] = 7
	if g := net.Params()[0].G; g != nil && g[0] == 7 {
		t.Fatal("clone shares gradient buffers")
	}
}

func TestCloneForwardMatches(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 24))
	net, err := NewNetwork(Shape{6, 6, 1}, rng,
		NewConv2D(3, 3, 2), NewReLU(), NewPool2D(AvgPool), NewFlatten(), NewDense(3))
	if err != nil {
		t.Fatal(err)
	}
	clone := net.Clone()
	x := randInput(rng, 36)
	a, _ := net.Forward(x)
	b, _ := clone.Forward(x)
	for i := range a {
		if a[i] != b[i] { //vvdlint:bitexact -- batch and engine parity vs Forward is bitwise by contract
			t.Fatal("clone forward differs")
		}
	}
}

func TestNadamDecaySchedule(t *testing.T) {
	o := NewNadam()
	lr0 := o.EffectiveLR()
	o.NextEpoch()
	lr1 := o.EffectiveLR()
	if math.Abs(lr1/lr0-0.996) > 1e-9 {
		t.Fatalf("decay ratio %v want 0.996", lr1/lr0)
	}
}

func TestNadamStepMovesWeights(t *testing.T) {
	p := newParam(3)
	p.W = []float64{1, 2, 3}
	p.G = []float64{1, -1, 0}
	o := NewNadam()
	o.LR = 0.1
	o.Step([]*Param{p}, 1)
	if p.W[0] >= 1 {
		t.Fatal("positive gradient must decrease weight")
	}
	if p.W[1] <= 2 {
		t.Fatal("negative gradient must increase weight")
	}
	if p.W[2] != 3 {
		t.Fatal("zero gradient must not move weight")
	}
}

func TestFitDeterministicWithSeed(t *testing.T) {
	rng1 := rand.New(rand.NewPCG(25, 26))
	mk := func(rng *rand.Rand, n int) []Sample {
		out := make([]Sample, n)
		for i := range out {
			x := randInput(rng, 4)
			out[i] = Sample{X: x, Y: []float64{x[0]}}
		}
		return out
	}
	run := func() float64 {
		rng := rand.New(rand.NewPCG(27, 28))
		net, err := NewNetwork(Shape{1, 1, 4}, rng, NewDense(6), NewReLU(), NewDense(1))
		if err != nil {
			t.Fatal(err)
		}
		data := mk(rand.New(rand.NewPCG(29, 30)), 64)
		hist, err := Fit(net, NewNadam(), data, nil, TrainConfig{Epochs: 3, BatchSize: 8, Workers: 1, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return hist.TrainLoss[len(hist.TrainLoss)-1]
	}
	_ = rng1
	if run() != run() {
		t.Fatal("same seed must reproduce training")
	}
}

func TestFitErrors(t *testing.T) {
	net, err := NewNetwork(Shape{1, 1, 2}, rand.New(rand.NewPCG(1, 2)), NewDense(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Fit(net, NewNadam(), nil, nil, DefaultTrainConfig()); err == nil {
		t.Fatal("empty training set accepted")
	}
	bad := []Sample{{X: []float64{1}, Y: []float64{1}}}
	if _, err := Fit(net, NewNadam(), bad, nil, DefaultTrainConfig()); err == nil {
		t.Fatal("shape-mismatched sample accepted")
	}
	good := []Sample{{X: []float64{1, 2}, Y: []float64{1}}}
	if _, err := Fit(net, NewNadam(), good, nil, TrainConfig{Epochs: 0}); err == nil {
		t.Fatal("zero epochs accepted")
	}
}

func TestNumParams(t *testing.T) {
	net, err := NewNetwork(Shape{1, 1, 3}, rand.New(rand.NewPCG(1, 2)), NewDense(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := net.NumParams(); got != 3*4+4 {
		t.Fatalf("NumParams = %d want 16", got)
	}
	if net.L2Norm() <= 0 {
		t.Fatal("L2Norm must be positive after init")
	}
}
