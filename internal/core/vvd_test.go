package core

import (
	"bytes"
	"fmt"
	"math/cmplx"
	"math/rand/v2"
	"testing"

	"vvd/internal/dataset"
	"vvd/internal/metrics"
	"vvd/internal/nn"
)

func tinyCampaign(t *testing.T) *dataset.Campaign {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.Sets = 3
	cfg.PacketsPerSet = 16
	cfg.PSDULen = 24
	c, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func tinyArch() Arch {
	return Arch{Conv1: 2, Conv2: 2, Conv3: 4, Conv4: 4, Dense: 16, Pool: nn.AvgPool}
}

var tinyCombo = dataset.Combination{Number: 1, Training: []int{1}, Val: 2, Test: 3}

func TestBuildNetworkShapes(t *testing.T) {
	for _, arch := range []Arch{PaperArch(), ScaledArch(), tinyArch()} {
		net, err := BuildNetwork(arch, rand.New(rand.NewPCG(1, 2)))
		if err != nil {
			t.Fatal(err)
		}
		if net.Out != (nn.Shape{H: 1, W: 1, C: OutputUnits}) {
			t.Fatalf("out shape %v", net.Out)
		}
	}
}

func TestBuildNetworkSkipDense(t *testing.T) {
	a := tinyArch()
	a.SkipDense = true
	net, err := BuildNetwork(a, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	full, err := BuildNetwork(tinyArch(), rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if net.NumParams() >= full.NumParams() {
		t.Fatal("SkipDense did not reduce parameters")
	}
}

func TestSamplesShapeAndNormalization(t *testing.T) {
	c := tinyCampaign(t)
	pkts := c.TrainingPackets(tinyCombo)
	mean := MeanCIR(pkts)
	norm := deviationNorm(pkts, mean)
	samples, err := Samples(pkts, dataset.LagCurrent, mean, norm)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 16 {
		t.Fatalf("samples = %d", len(samples))
	}
	for _, s := range samples {
		if len(s.X) != dataset.ImagePixels || len(s.Y) != OutputUnits {
			t.Fatalf("sample shapes %d/%d", len(s.X), len(s.Y))
		}
		for _, y := range s.Y {
			if y > 1+1e-9 || y < -1-1e-9 {
				t.Fatalf("target %v outside [-1,1]", y)
			}
		}
	}
}

func TestSamplesWithoutImages(t *testing.T) {
	cfg := dataset.DefaultConfig()
	cfg.Sets = 1
	cfg.PacketsPerSet = 2
	cfg.PSDULen = 24
	cfg.RenderImages = false
	c, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pkts := []*dataset.Packet{&c.Sets[0].Packets[0]}
	if _, err := Samples(pkts, dataset.LagCurrent, nil, 1); err == nil {
		t.Fatal("missing images accepted")
	}
}

func TestTrainEstimateRoundTrip(t *testing.T) {
	c := tinyCampaign(t)
	cfg := TrainConfig{Arch: tinyArch(), Epochs: 4, Batch: 8, Workers: 2, Seed: 3, LR: 1e-3}
	v, hist, err := Train(c, tinyCombo, dataset.LagCurrent, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.TrainLoss) != 4 {
		t.Fatalf("history epochs = %d", len(hist.TrainLoss))
	}
	pkt := c.Sets[2].Packets[0]
	h, err := v.Estimate(pkt.Images[dataset.LagCurrent])
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != OutputTaps {
		t.Fatalf("estimate taps = %d", len(h))
	}
	// The estimate must be in the physical amplitude range of the channel
	// (norm reverted), not the normalized [-1,1] range.
	var maxAbs float64
	for _, tap := range h {
		if a := cmplx.Abs(tap); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs > 10*v.Norm*2 {
		t.Fatalf("estimate magnitude %v implausible vs norm %v", maxAbs, v.Norm)
	}
}

func TestTrainingLearnsChannelBetterThanMean(t *testing.T) {
	// A VVD trained briefly must beat the trivial predictor (mean of the
	// training targets) on the test set — i.e. the depth image carries
	// usable channel information.
	cfg := dataset.DefaultConfig()
	cfg.Sets = 3
	cfg.PacketsPerSet = 60
	cfg.PSDULen = 24
	c, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tc := TrainConfig{Arch: tinyArch(), Epochs: 20, Batch: 16, Workers: 4, Seed: 5, LR: 2e-3}
	v, _, err := Train(c, tinyCombo, dataset.LagCurrent, tc)
	if err != nil {
		t.Fatal(err)
	}
	// Mean predictor over training targets.
	mean := make([]complex128, OutputTaps)
	train := c.TrainingPackets(tinyCombo)
	for _, p := range train {
		for i, tap := range p.PerfectAligned {
			mean[i] += tap
		}
	}
	for i := range mean {
		mean[i] /= complex(float64(len(train)), 0)
	}
	var vvdErr, meanErr float64
	for _, p := range c.TestPackets(tinyCombo) {
		h, err := v.Estimate(p.Images[dataset.LagCurrent])
		if err != nil {
			t.Fatal(err)
		}
		vvdErr += metrics.SqError(h, p.PerfectAligned)
		meanErr += metrics.SqError(mean, p.PerfectAligned)
	}
	if vvdErr >= meanErr {
		t.Fatalf("VVD MSE %v not below mean-predictor MSE %v", vvdErr, meanErr)
	}
}

func TestVVDCloneSharesWeights(t *testing.T) {
	c := tinyCampaign(t)
	cfg := TrainConfig{Arch: tinyArch(), Epochs: 2, Batch: 8, Seed: 5, LR: 1e-3}
	v, _, err := Train(c, tinyCombo, dataset.LagCurrent, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp := v.Clone()
	if cp.Net == v.Net {
		t.Fatal("clone shares the Network instance (forward caches would race)")
	}
	img := c.Sets[2].Packets[0].Images[dataset.LagCurrent]
	a, err := v.Estimate(img)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cp.Estimate(img)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] { //vvdlint:bitexact -- save/load and batch parity are bitwise by contract
			t.Fatalf("clone estimate differs at tap %d: %v vs %v", i, a[i], b[i])
		}
	}
	// Concurrent inference on independent clones must agree with the
	// sequential result (run under -race to catch cache sharing).
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func() {
			h, err := v.Clone().Estimate(img)
			if err == nil {
				for i := range h {
					if h[i] != a[i] { //vvdlint:bitexact -- save/load and batch parity are bitwise by contract
						err = fmt.Errorf("concurrent clone diverged at tap %d", i)
						break
					}
				}
			}
			done <- err
		}()
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestSaveLoadModel(t *testing.T) {
	c := tinyCampaign(t)
	cfg := TrainConfig{Arch: tinyArch(), Epochs: 2, Batch: 8, Seed: 3, LR: 1e-3}
	v, _, err := Train(c, tinyCombo, dataset.Lag33ms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := v.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Lag != dataset.Lag33ms || loaded.Norm != v.Norm { //vvdlint:bitexact -- save/load and batch parity are bitwise by contract
		t.Fatalf("metadata mismatch: %v %v", loaded.Lag, loaded.Norm)
	}
	img := c.Sets[0].Packets[0].Images[dataset.Lag33ms]
	a, err := v.Estimate(img)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Estimate(img)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatal("loaded model estimates differ")
		}
	}
}

func TestLoadModelGarbage(t *testing.T) {
	if _, err := LoadModel(bytes.NewReader([]byte("nonsense"))); err == nil {
		t.Fatal("garbage model accepted")
	}
}

func TestEstimateErrors(t *testing.T) {
	var v VVD
	if _, err := v.Estimate(make([]float32, 10)); err == nil {
		t.Fatal("untrained model accepted")
	}
	c := tinyCampaign(t)
	cfg := TrainConfig{Arch: tinyArch(), Epochs: 1, Batch: 8, Seed: 3}
	trained, _, err := Train(c, tinyCombo, dataset.LagCurrent, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trained.Estimate(make([]float32, 10)); err == nil {
		t.Fatal("wrong image size accepted")
	}
}

func TestTrainValidatesCombination(t *testing.T) {
	c := tinyCampaign(t)
	bad := dataset.Combination{Number: 1, Training: []int{1}, Val: 2, Test: 9}
	if _, _, err := Train(c, bad, dataset.LagCurrent, TrainConfig{Arch: tinyArch(), Epochs: 1, Batch: 4}); err == nil {
		t.Fatal("invalid combination accepted")
	}
}

func TestCombined(t *testing.T) {
	pre := []complex128{1}
	blind := []complex128{2}
	if got := Combined(true, pre, blind); got[0] != 1 {
		t.Fatal("detected preamble must use preamble estimate")
	}
	if got := Combined(false, pre, blind); got[0] != 2 {
		t.Fatal("missed preamble must fall back to blind estimate")
	}
	if got := Combined(true, nil, blind); got[0] != 2 {
		t.Fatal("nil preamble estimate must fall back")
	}
}

func TestTechniqueLists(t *testing.T) {
	if len(AllTechniques) != 14 {
		t.Fatalf("techniques = %d want 14 (paper §5)", len(AllTechniques))
	}
	seen := map[string]bool{}
	for _, name := range AllTechniques {
		if seen[name] {
			t.Fatalf("duplicate technique %q", name)
		}
		seen[name] = true
	}
	for _, name := range Fig12Techniques {
		if !seen[name] {
			t.Fatalf("Fig12 technique %q not in AllTechniques", name)
		}
	}
}

// TestEstimateBatchMatchesEstimate pins the serving-path contract:
// batched inference returns exactly what per-image Estimate would.
func TestEstimateBatchMatchesEstimate(t *testing.T) {
	net, err := BuildNetwork(tinyArch(), rand.New(rand.NewPCG(8, 16)))
	if err != nil {
		t.Fatal(err)
	}
	mean := make([]complex128, OutputTaps)
	for i := range mean {
		mean[i] = complex(float64(i)*0.01, -float64(i)*0.02)
	}
	v := &VVD{Net: net, Norm: 1.7, Mean: mean, Lag: dataset.LagCurrent}

	rng := rand.New(rand.NewPCG(4, 2))
	imgs := make([][]float32, 5)
	for s := range imgs {
		img := make([]float32, InputShape.Size())
		for i := range img {
			img[i] = rng.Float32()
		}
		imgs[s] = img
	}
	got, err := v.EstimateBatch(imgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(imgs) {
		t.Fatalf("got %d estimates, want %d", len(got), len(imgs))
	}
	for s, img := range imgs {
		want, err := v.Estimate(img)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[s][i] != want[i] { //vvdlint:bitexact -- save/load and batch parity are bitwise by contract
				t.Fatalf("image %d tap %d: batch %v != single %v", s, i, got[s][i], want[i])
			}
		}
	}

	if _, err := v.EstimateBatch([][]float32{make([]float32, 3)}); err == nil {
		t.Fatal("expected size-mismatch error")
	}
	if out, err := v.EstimateBatch(nil); err != nil || len(out) != 0 {
		t.Fatalf("empty batch: got %v, %v", out, err)
	}
	var untrained VVD
	if _, err := untrained.EstimateBatch(imgs); err == nil {
		t.Fatal("expected untrained error")
	}
}

// noGradients fails if any parameter of net holds a gradient buffer.
func noGradients(t *testing.T, what string, net *nn.Network) {
	t.Helper()
	for i, p := range net.Params() {
		if p.G != nil {
			t.Errorf("%s: parameter %d holds a %d-element gradient", what, i, len(p.G))
		}
	}
}

// TestModelsCarryNoTrainingState: a trained, built or loaded VVD network
// holds weights only — no gradients; the Nadam moments never live on a
// parameter.
func TestModelsCarryNoTrainingState(t *testing.T) {
	net, err := BuildNetwork(ScaledArch(), rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	noGradients(t, "built", net)
	c := tinyCampaign(t)
	v, _, err := Train(c, tinyCombo, dataset.LagCurrent, TrainConfig{Arch: tinyArch(), Epochs: 2, Batch: 8, Seed: 3, LR: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	noGradients(t, "trained", v.Net)
	var buf bytes.Buffer
	if err := v.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	noGradients(t, "loaded", loaded.Net)
	noGradients(t, "cloned", v.Clone().Net)
}

// TestLayerBackwardOnBuiltNetwork drives every layer's Forward and
// Backward by hand on a freshly built ScaledArch network, as the layer
// benchmarks do: the first Backward grows the gradient buffers.
func TestLayerBackwardOnBuiltNetwork(t *testing.T) {
	net, err := BuildNetwork(ScaledArch(), rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, net.In.Size())
	for i := range x {
		x[i] = float64(i%17) / 17
	}
	out := x
	for _, l := range net.Layers {
		out = l.Forward(out)
	}
	g := make([]float64, len(out))
	for i := range g {
		g[i] = 0.01
	}
	for i := len(net.Layers) - 1; i >= 0; i-- {
		g = net.Layers[i].Backward(g)
	}
	if len(g) != net.In.Size() {
		t.Fatalf("input gradient of %d elements, want %d", len(g), net.In.Size())
	}
	for i, p := range net.Params() {
		if len(p.G) != len(p.W) {
			t.Fatalf("parameter %d: %d-element gradient for %d weights", i, len(p.G), len(p.W))
		}
	}
	nn.NewNadam().Step(net.Params(), 16)
}
