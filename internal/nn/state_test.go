package nn

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

// assertWeightsOnly fails if any parameter of net holds a gradient or any
// layer holds a forward cache: a built, loaded, cloned or fitted network
// carries its weights and nothing else.
func assertWeightsOnly(t *testing.T, what string, net *Network) {
	t.Helper()
	for i, p := range net.Params() {
		if p.G != nil {
			t.Errorf("%s: parameter %d holds a %d-element gradient", what, i, len(p.G))
		}
	}
	for i, l := range net.Layers {
		switch t2 := l.(type) {
		case *Conv2D:
			if t2.inCache != nil {
				t.Errorf("%s: conv layer %d holds its forward input", what, i)
			}
		case *Dense:
			if t2.inCache != nil {
				t.Errorf("%s: dense layer %d holds its forward input", what, i)
			}
		case *ReLU:
			if t2.mask != nil {
				t.Errorf("%s: relu layer %d holds its mask", what, i)
			}
		case *Pool2D:
			if t2.argmax != nil {
				t.Errorf("%s: pool layer %d holds its argmax", what, i)
			}
		}
	}
}

func stateNet(t *testing.T) *Network {
	t.Helper()
	net, err := NewNetwork(Shape{6, 6, 1}, rand.New(rand.NewPCG(31, 32)),
		NewConv2D(3, 3, 2), NewReLU(), NewPool2D(MaxPool), NewFlatten(), NewDense(4), NewReLU(), NewDense(2))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func stateSamples(n int) []Sample {
	rng := rand.New(rand.NewPCG(33, 34))
	out := make([]Sample, n)
	for i := range out {
		x := randInput(rng, 36)
		out[i] = Sample{X: x, Y: []float64{x[0] + x[7], x[13] - x[20]}}
	}
	return out
}

// TestNetworksCarryNoTrainingState: building, cloning, loading and
// fitting all leave a network weights-only.
func TestNetworksCarryNoTrainingState(t *testing.T) {
	net := stateNet(t)
	assertWeightsOnly(t, "built", net)
	assertWeightsOnly(t, "cloned", net.Clone())
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertWeightsOnly(t, "loaded", loaded)
	data := stateSamples(24)
	if _, err := Fit(net, NewNadam(), data[:16], data[16:], TrainConfig{Epochs: 2, BatchSize: 4, Workers: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	assertWeightsOnly(t, "fitted", net)
}

// TestFitTrainsLoadedNetwork: a loaded network (no gradients yet) trains
// like the network it was saved from, bit for bit.
func TestFitTrainsLoadedNetwork(t *testing.T) {
	net := stateNet(t)
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	data := stateSamples(24)
	cfg := TrainConfig{Epochs: 3, BatchSize: 4, Workers: 2, Seed: 5}
	before := loaded.L2Norm()
	hl, err := Fit(loaded, NewNadam(), data[:16], data[16:], cfg)
	if err != nil {
		t.Fatal(err)
	}
	hn, err := Fit(net, NewNadam(), data[:16], data[16:], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.L2Norm() == before { //vvdlint:bitexact -- an untouched network keeps its norm exactly
		t.Fatal("Fit did not move the loaded network's weights")
	}
	for i := range hn.TrainLoss {
		if hl.TrainLoss[i] != hn.TrainLoss[i] { //vvdlint:bitexact -- save/load round-trips weights exactly
			t.Fatalf("epoch %d: loaded net trained to loss %v, original to %v", i, hl.TrainLoss[i], hn.TrainLoss[i])
		}
	}
}

// TestBackwardOnFreshNetwork: Backward straight after Forward on a new
// network, with no Fit, grows the gradients it accumulates into.
func TestBackwardOnFreshNetwork(t *testing.T) {
	net := stateNet(t)
	x := randInput(rand.New(rand.NewPCG(35, 36)), 36)
	out, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	g := make([]float64, len(out))
	for i := range g {
		g[i] = 1
	}
	for i := len(net.Layers) - 1; i >= 0; i-- {
		g = net.Layers[i].Backward(g)
	}
	for i, p := range net.Params() {
		if len(p.G) != len(p.W) {
			t.Fatalf("parameter %d: gradient of %d elements for %d weights", i, len(p.G), len(p.W))
		}
	}
	var nonzero bool
	for _, v := range net.Params()[len(net.Params())-1].G {
		nonzero = nonzero || v != 0
	}
	if !nonzero {
		t.Fatal("output bias gradient is all zero")
	}
	opt := NewNadam()
	opt.Step(net.Params(), 1)
	net.ZeroGrad()
}
