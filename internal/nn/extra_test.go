package nn

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestPoolOddDimensionsFloor(t *testing.T) {
	// 5×7 input pools to 2×3 (floor division): the odd row/column is
	// dropped, matching Keras' default.
	p := NewPool2D(AvgPool)
	out, err := p.OutShape(Shape{5, 7, 2})
	if err != nil {
		t.Fatal(err)
	}
	if out != (Shape{2, 3, 2}) {
		t.Fatalf("out = %v want 2x3x2", out)
	}
	in := make([]float64, 5*7*2)
	for i := range in {
		in[i] = float64(i)
	}
	res := p.Forward(in)
	if len(res) != out.Size() {
		t.Fatalf("forward len = %d want %d", len(res), out.Size())
	}
}

func TestEvaluateEmpty(t *testing.T) {
	net, err := NewNetwork(Shape{1, 1, 2}, rand.New(rand.NewPCG(1, 2)), NewDense(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Evaluate(net, nil); err == nil {
		t.Fatal("empty evaluation set accepted")
	}
}

func TestConvMultiChannelShape(t *testing.T) {
	net, err := NewNetwork(Shape{8, 8, 3}, rand.New(rand.NewPCG(3, 4)),
		NewConv2D(3, 3, 5), NewConv2D(3, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if net.Out != (Shape{4, 4, 2}) {
		t.Fatalf("out = %v", net.Out)
	}
	x := make([]float64, 8*8*3)
	out, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 32 {
		t.Fatalf("len = %d", len(out))
	}
}

func TestGradCheckMultiChannelConvChain(t *testing.T) {
	// Two stacked convolutions: gradient flow through channel mixing.
	net, err := NewNetwork(Shape{6, 6, 2}, rand.New(rand.NewPCG(5, 6)),
		NewConv2D(3, 3, 3), NewReLU(), NewConv2D(2, 2, 2), NewFlatten(), NewDense(2))
	if err != nil {
		t.Fatal(err)
	}
	gradCheck(t, net, 72, 2, 60)
}

func TestNadamConvergesOnQuadratic(t *testing.T) {
	// Minimize (w−3)² directly through the optimizer interface.
	p := newParam(1)
	o := NewNadam()
	o.LR = 0.05
	for i := 0; i < 2000; i++ {
		p.grad()[0] = 2 * (p.W[0] - 3)
		o.Step([]*Param{p}, 1)
	}
	if math.Abs(p.W[0]-3) > 0.05 {
		t.Fatalf("w = %v want ≈ 3", p.W[0])
	}
}

func TestWorkerCountsEquivalent(t *testing.T) {
	// Training with 1 worker and 3 workers must produce identical weights:
	// gradients are summed deterministically regardless of partitioning.
	mk := func(workers int) float64 {
		rng := rand.New(rand.NewPCG(7, 8))
		net, err := NewNetwork(Shape{1, 1, 4}, rng, NewDense(6), NewReLU(), NewDense(1))
		if err != nil {
			t.Fatal(err)
		}
		data := make([]Sample, 24)
		drng := rand.New(rand.NewPCG(9, 10))
		for i := range data {
			x := randInput(drng, 4)
			data[i] = Sample{X: x, Y: []float64{x[0] - x[2]}}
		}
		if _, err := Fit(net, NewNadam(), data, nil, TrainConfig{Epochs: 3, BatchSize: 12, Workers: workers, Seed: 2}); err != nil {
			t.Fatal(err)
		}
		return net.L2Norm()
	}
	a, b := mk(1), mk(3)
	if math.Abs(a-b) > 1e-9 {
		t.Fatalf("worker count changed training result: %v vs %v", a, b)
	}
}

func TestSaveRejectsAfterCorruptStream(t *testing.T) {
	net, err := NewNetwork(Shape{1, 1, 2}, rand.New(rand.NewPCG(1, 1)), NewDense(1))
	if err != nil {
		t.Fatal(err)
	}
	w := &failWriter{failAfter: 3}
	if err := net.Save(w); err == nil {
		t.Fatal("write failure not propagated")
	}
}

type failWriter struct {
	n         int
	failAfter int
}

func (f *failWriter) Write(p []byte) (int, error) {
	f.n++
	if f.n > f.failAfter {
		return 0, errWrite
	}
	return len(p), nil
}

var errWrite = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "synthetic write failure" }
