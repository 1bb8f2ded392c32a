// Package core implements the paper's contribution: Veni Vidi Dixi (VVD),
// blind complex wireless channel estimation from depth images of the
// communication environment. A CNN (paper Fig. 8) maps a preprocessed
// 50×90 depth image to the 22 real values (real ∥ imaginary) of the
// normalized 11-tap CIR. Three variants differ only in the training
// target: the current channel, or the channel 33.3 ms / 100 ms after the
// image was captured.
//
// The package also names every channel-estimation technique compared in
// the paper (§5) and provides the combined (preamble + blind fallback)
// estimator of Fig. 10.
package core

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"sync"

	"vvd/internal/camera"
	"vvd/internal/dataset"
	"vvd/internal/nn"
)

// Technique names, exactly as the paper's evaluation labels them.
const (
	TechStandard       = "Standard Decoding"
	TechGroundTruth    = "Ground Truth"
	TechPreamble       = "Preamble Based"
	TechPreambleGenie  = "Preamble Based-Genie"
	TechPrev100ms      = "100ms Previous"
	TechPrev500ms      = "500ms Previous"
	TechKalmanAR1      = "Kalman AR(1)"
	TechKalmanAR5      = "Kalman AR(5)"
	TechKalmanAR20     = "Kalman AR(20)"
	TechVVDCurrent     = "VVD-Current"
	TechVVD33msFuture  = "VVD-33.3ms Future"
	TechVVD100msFuture = "VVD-100ms Future"
	TechCombinedVVD    = "Preamble-VVD Combined"
	TechCombinedKalman = "Preamble-Kalman Combined"
)

// AllTechniques lists every implemented technique in the paper's order.
var AllTechniques = []string{
	TechStandard, TechGroundTruth, TechPreamble, TechPreambleGenie,
	TechPrev100ms, TechPrev500ms,
	TechKalmanAR1, TechKalmanAR5, TechKalmanAR20,
	TechVVDCurrent, TechVVD33msFuture, TechVVD100msFuture,
	TechCombinedVVD, TechCombinedKalman,
}

// Fig12Techniques is the subset plotted in the paper's overall comparison
// (Figs. 12–13), in plot order.
var Fig12Techniques = []string{
	TechStandard, TechPreamble, TechPrev500ms, TechPrev100ms,
	TechKalmanAR20, TechVVDCurrent,
	TechCombinedKalman, TechCombinedVVD,
	TechPreambleGenie, TechGroundTruth,
}

// Arch parameterizes the Fig. 8 CNN. The paper's full size is expensive on
// CPU; Scale shrinks filter counts while preserving the topology.
type Arch struct {
	Conv1, Conv2, Conv3, Conv4 int // filters per convolution block
	Dense                      int // width of the hidden dense layer
	Pool                       nn.PoolKind
	// SkipDense drops the hidden dense layer (ablation: the paper found
	// removing it slightly hurts).
	SkipDense bool
}

// PaperArch is the architecture of Fig. 8.
func PaperArch() Arch {
	return Arch{Conv1: 32, Conv2: 32, Conv3: 64, Conv4: 64, Dense: 256, Pool: nn.AvgPool}
}

// ScaledArch is a CPU-friendly reduction used by the default experiment
// parameters (topology identical, filter counts reduced).
func ScaledArch() Arch {
	return Arch{Conv1: 8, Conv2: 8, Conv3: 16, Conv4: 16, Dense: 64, Pool: nn.AvgPool}
}

// InputShape is the preprocessed depth-image input (Fig. 7).
var InputShape = nn.Shape{H: camera.CropRows, W: camera.CropCols, C: 1}

// OutputTaps is the CIR length the network predicts.
const OutputTaps = 11

// OutputUnits is the output layer width: real and imaginary parts
// concatenated (Fig. 6).
const OutputUnits = 2 * OutputTaps

// BuildNetwork constructs the Fig. 8 CNN for the given architecture.
func BuildNetwork(a Arch, rng *rand.Rand) (*nn.Network, error) {
	layers := []nn.Layer{
		nn.NewConv2D(3, 3, a.Conv1), nn.NewReLU(), nn.NewPool2D(a.Pool),
		nn.NewConv2D(3, 3, a.Conv2), nn.NewReLU(), nn.NewPool2D(a.Pool),
		nn.NewConv2D(3, 3, a.Conv3), nn.NewReLU(), nn.NewPool2D(a.Pool),
		nn.NewConv2D(3, 3, a.Conv4), nn.NewReLU(),
		nn.NewFlatten(),
	}
	if !a.SkipDense {
		layers = append(layers, nn.NewDense(a.Dense), nn.NewReLU())
	}
	layers = append(layers, nn.NewDense(OutputUnits))
	return nn.NewNetwork(InputShape, rng, layers...)
}

// VVD is a trained image→CIR estimator. The network regresses the
// *deviation* of the normalized CIR from the training-set mean: the static
// part of the channel is carried by Mean, so the CNN spends its capacity
// on the mobility-dependent components (a standardization on top of the
// paper's max-|CIR| normalization).
type VVD struct {
	Net  *nn.Network
	Norm float64          // training-set normalization factor (reverted on output)
	Mean []complex128     // training-set mean CIR (added back on output)
	Lag  dataset.ImageLag // which image lag this variant was trained on

	// Inference rides a compiled nn.InferenceEngine (implicit-GEMM
	// convolution, float32), built lazily from Net on the first Estimate
	// and shared by all concurrent callers. Training and Backward keep
	// using the float64 Net directly.
	engOnce sync.Once
	eng     *nn.InferenceEngine
	engErr  error
}

// TrainConfig bundles the knobs of a VVD training run.
type TrainConfig struct {
	Arch    Arch
	Epochs  int
	Batch   int
	Workers int
	Seed    uint64
	LR      float64 // 0 → paper default 1e-4
	Verbose func(epoch int, train, val float64)
	// NormOverride, when non-zero, replaces the training-set CIR
	// normalization factor (ablation: 1 disables normalization).
	NormOverride float64
}

// DefaultTrainConfig is the scaled configuration the experiments use.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Arch: ScaledArch(), Epochs: 24, Batch: 16, Seed: 7, LR: 2.5e-3}
}

// MeanCIR returns the arithmetic mean of the packets' aligned perfect
// estimates — the static component of the channel.
func MeanCIR(pkts []*dataset.Packet) []complex128 {
	mean := make([]complex128, OutputTaps)
	if len(pkts) == 0 {
		return mean
	}
	for _, p := range pkts {
		for i, c := range p.PerfectAligned {
			if i < OutputTaps {
				mean[i] += c
			}
		}
	}
	inv := complex(1/float64(len(pkts)), 0)
	for i := range mean {
		mean[i] *= inv
	}
	return mean
}

// Samples converts campaign packets into training samples for a variant:
// the image at the given lag maps to the normalized deviation of the
// aligned perfect CIR from mean (pass a zero mean to regress the raw CIR).
func Samples(pkts []*dataset.Packet, lag dataset.ImageLag, mean []complex128, norm float64) ([]nn.Sample, error) {
	out := make([]nn.Sample, 0, len(pkts))
	for _, p := range pkts {
		img := p.Images[lag]
		if img == nil {
			return nil, dataset.ErrNoImages
		}
		x := make([]float64, len(img))
		for i, v := range img {
			x[i] = float64(v)
		}
		y := make([]float64, OutputUnits)
		if len(p.PerfectAligned) != OutputTaps {
			return nil, fmt.Errorf("core: packet CIR has %d taps, want %d", len(p.PerfectAligned), OutputTaps)
		}
		for i, c := range p.PerfectAligned {
			d := c
			if mean != nil {
				d -= mean[i]
			}
			y[i] = real(d) / norm
			y[OutputTaps+i] = imag(d) / norm
		}
		out = append(out, nn.Sample{X: x, Y: y})
	}
	return out, nil
}

// Train fits a VVD variant on a campaign partition, selecting the epoch
// with the best validation loss (the paper's checkpointing).
func Train(c *dataset.Campaign, cb dataset.Combination, lag dataset.ImageLag, cfg TrainConfig) (*VVD, *nn.History, error) {
	if err := cb.Validate(c); err != nil {
		return nil, nil, err
	}
	trainPkts := c.TrainingPackets(cb)
	mean := MeanCIR(trainPkts)
	norm := deviationNorm(trainPkts, mean)
	if cfg.NormOverride != 0 {
		norm = cfg.NormOverride
	}
	train, err := Samples(trainPkts, lag, mean, norm)
	if err != nil {
		return nil, nil, err
	}
	val, err := Samples(c.ValPackets(cb), lag, mean, norm)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x51ed2701))
	net, err := BuildNetwork(cfg.Arch, rng)
	if err != nil {
		return nil, nil, err
	}
	opt := nn.NewNadam()
	if cfg.LR > 0 {
		opt.LR = cfg.LR
	}
	hist, err := nn.Fit(net, opt, train, val, nn.TrainConfig{
		Epochs:    cfg.Epochs,
		BatchSize: cfg.Batch,
		Workers:   cfg.Workers,
		Seed:      cfg.Seed,
		Verbose:   cfg.Verbose,
	})
	if err != nil {
		return nil, nil, err
	}
	return &VVD{Net: net, Norm: norm, Mean: mean, Lag: lag}, hist, nil
}

// deviationNorm is the max absolute real/imaginary deviation from the mean
// over the training targets (the paper's max-|CIR| normalization applied to
// the regressed quantity).
func deviationNorm(pkts []*dataset.Packet, mean []complex128) float64 {
	var max float64
	for _, p := range pkts {
		for i, c := range p.PerfectAligned {
			if i >= len(mean) {
				break
			}
			d := c - mean[i]
			if m := abs(real(d)); m > max {
				max = m
			}
			if m := abs(imag(d)); m > max {
				max = m
			}
		}
	}
	if max == 0 {
		return 1
	}
	return max
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// engine returns the compiled inference engine, building it on first use.
func (v *VVD) engine() (*nn.InferenceEngine, error) {
	v.engOnce.Do(func() {
		v.eng, v.engErr = nn.NewInferenceEngine(v.Net)
	})
	return v.eng, v.engErr
}

// Engine exposes the compiled inference engine (compiling it if needed)
// for callers that want the raw float32 entry points. Returns an error if the model has no trained network.
func (v *VVD) Engine() (*nn.InferenceEngine, error) {
	if v.Net == nil {
		return nil, errors.New("core: VVD not trained")
	}
	return v.engine()
}

// InferenceMode reports the active inference kernels: "float32", or
// "untrained" when there is no network to compile.
func (v *VVD) InferenceMode() string {
	if _, err := v.Engine(); err != nil {
		return "untrained"
	}
	return "float32"
}

// Estimate maps one preprocessed depth image to a complex CIR estimate
// (de-normalized; phase-aligned to the campaign reference like its
// training targets). Inference runs on the compiled float32 GEMM engine.
// The paper reports ≈0.9 ms
// per estimate on GPU and ≈9.8 ms on CPU; perfbench's
// core.vvd_estimate_us measures this implementation.
func (v *VVD) Estimate(img []float32) ([]complex128, error) {
	hs, err := v.EstimateBatch([][]float32{img})
	if err != nil {
		return nil, err
	}
	return hs[0], nil
}

// EstimateBatch maps a batch of preprocessed depth images to CIR
// estimates, one per image and bitwise identical to per-image Estimate
// calls (engine results are independent of the batch they ride in). One
// engine pass amortizes activation packing and keeps every scratch
// buffer pooled, so a serving pipeline that queued several frames pays
// far less than len(imgs) sequential inferences (the batch1 vs batch8
// sub-benchmarks of BenchmarkInferenceEngine measure the ratio).
func (v *VVD) EstimateBatch(imgs [][]float32) ([][]complex128, error) {
	if v.Net == nil {
		return nil, errors.New("core: VVD not trained")
	}
	for s, img := range imgs {
		if len(img) != v.Net.In.Size() {
			return nil, fmt.Errorf("core: image %d size %d, want %d", s, len(img), v.Net.In.Size())
		}
	}
	eng, err := v.engine()
	if err != nil {
		return nil, err
	}
	outs, err := eng.ForwardBatchF32(imgs)
	if err != nil {
		return nil, err
	}
	hs := make([][]complex128, len(outs))
	for s, out := range outs {
		hs[s] = v.denormalize(out)
	}
	return hs, nil
}

// denormalize converts a network output vector back to a complex CIR:
// undo the norm scaling and add the training-set mean back.
func (v *VVD) denormalize(out []float32) []complex128 {
	h := make([]complex128, OutputTaps)
	for i := range h {
		h[i] = complex(float64(out[i])*v.Norm, float64(out[OutputTaps+i])*v.Norm)
		if v.Mean != nil && i < len(v.Mean) {
			h[i] += v.Mean[i]
		}
	}
	return h
}

// Clone returns a VVD sharing the trained weights but owning private
// forward caches and its own compiled engine, so Estimate can run
// concurrently on the clone and the original (the weights are only read
// during inference).
func (v *VVD) Clone() *VVD {
	cp := &VVD{Norm: v.Norm, Mean: v.Mean, Lag: v.Lag}
	if v.Net != nil {
		cp.Net = v.Net.Clone()
	}
	return cp
}

// Save serializes the model weights, normalization factor and mean CIR.
func (v *VVD) Save(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "VVDMODEL2 %d %.17g %d\n", int(v.Lag), v.Norm, len(v.Mean)); err != nil {
		return err
	}
	for _, c := range v.Mean {
		if _, err := fmt.Fprintf(w, "%.17g %.17g\n", real(c), imag(c)); err != nil {
			return err
		}
	}
	return v.Net.Save(w)
}

// LoadModel restores a model written by Save.
func LoadModel(r io.Reader) (*VVD, error) {
	var lag, nMean int
	var norm float64
	if _, err := fmt.Fscanf(r, "VVDMODEL2 %d %g %d\n", &lag, &norm, &nMean); err != nil {
		return nil, fmt.Errorf("core: bad model header: %w", err)
	}
	if nMean < 0 || nMean > 4096 {
		return nil, fmt.Errorf("core: implausible mean length %d", nMean)
	}
	mean := make([]complex128, nMean)
	for i := range mean {
		var re, im float64
		if _, err := fmt.Fscanf(r, "%g %g\n", &re, &im); err != nil {
			return nil, fmt.Errorf("core: bad mean entry: %w", err)
		}
		mean[i] = complex(re, im)
	}
	net, err := nn.Load(r)
	if err != nil {
		return nil, err
	}
	return &VVD{Net: net, Norm: norm, Mean: mean, Lag: dataset.ImageLag(lag)}, nil
}

// Combined implements the Fig. 10 flow: use the preamble-based estimate
// when the preamble was detected, otherwise fall back to the blind
// estimate.
func Combined(preambleDetected bool, preambleEst, blindEst []complex128) []complex128 {
	if preambleDetected && preambleEst != nil {
		return preambleEst
	}
	return blindEst
}
