package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
)

// Nadam is the Nesterov-accelerated Adam optimizer used by the paper
// (initial learning rate 1e-4, per-epoch decay 0.004).
type Nadam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64
	// Decay is the multiplicative per-epoch schedule: each epoch the
	// learning rate is (1-Decay)× the previous epoch's, i.e. the paper's
	// "drops to 0.996 of its value each epoch" with Decay = 0.004. (This
	// is not Keras' hyperbolic 1/(1+Decay·epoch) decay.)
	Decay float64

	t     int
	epoch int
	// m and v are the first and second moments, one slice per parameter
	// in the order Step receives them, allocated on the first Step.
	m, v [][]float64
}

// NewNadam returns the paper's optimizer configuration.
func NewNadam() *Nadam {
	return &Nadam{LR: 1e-4, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8, Decay: 0.004}
}

// EffectiveLR returns the decayed learning rate for the current epoch:
// LR·(1-Decay)^epoch, the paper's 0.996-per-epoch geometric schedule.
func (o *Nadam) EffectiveLR() float64 {
	return o.LR * math.Pow(1-o.Decay, float64(o.epoch))
}

// NextEpoch advances the decay schedule.
func (o *Nadam) NextEpoch() { o.epoch++ }

// Step applies one Nadam update to the parameters using their accumulated
// gradients (scaled by 1/batch), then leaves gradients untouched (caller
// zeroes them). Every Step of one optimizer must see the same parameters
// in the same order: the moments are kept by position. A parameter
// without a gradient yet does not move.
func (o *Nadam) Step(params []*Param, batch int) {
	if o.m == nil {
		o.m = make([][]float64, len(params))
		o.v = make([][]float64, len(params))
		for i, p := range params {
			o.m[i] = make([]float64, len(p.W))
			o.v[i] = make([]float64, len(p.W))
		}
	}
	if len(params) != len(o.m) {
		panic("nn: Nadam stepped over a different parameter set")
	}
	o.t++
	lr := o.EffectiveLR()
	b1, b2 := o.Beta1, o.Beta2
	t := float64(o.t)
	// Nesterov momentum schedule (simplified Keras Nadam).
	bc1 := 1 - math.Pow(b1, t)
	bc1Next := 1 - math.Pow(b1, t+1)
	bc2 := 1 - math.Pow(b2, t)
	scale := 1 / float64(batch)
	for pi, p := range params {
		m, v := o.m[pi], o.v[pi]
		for i, g := range p.G {
			g *= scale
			m[i] = b1*m[i] + (1-b1)*g
			v[i] = b2*v[i] + (1-b2)*g*g
			mHat := m[i]/bc1Next*b1 + (1-b1)*g/bc1
			vHat := v[i] / bc2
			p.W[i] -= lr * mHat / (math.Sqrt(vHat) + o.Epsilon)
		}
	}
}

// Sample is one training example.
type Sample struct {
	X []float64
	Y []float64
}

// TrainConfig controls Fit.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	Workers   int // data-parallel gradient workers (0 = GOMAXPROCS)
	Seed      uint64
	// Verbose, if non-nil, receives one line per epoch.
	Verbose func(epoch int, trainLoss, valLoss float64)
}

// DefaultTrainConfig mirrors the paper's schedule scaled for CPU training.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 30, BatchSize: 16, Seed: 1}
}

// History records per-epoch losses of a training run.
type History struct {
	TrainLoss []float64
	ValLoss   []float64
	BestEpoch int
	BestVal   float64
}

// Fit trains the network with Nadam + MSE, evaluating the validation set
// each epoch and restoring the best-validation weights at the end (the
// paper selects the epoch with the best validation performance). Training
// runs on clones, so net itself never runs a forward pass, and Fit
// releases its gradients on return: net comes back weights-only.
func Fit(net *Network, opt *Nadam, train, val []Sample, cfg TrainConfig) (*History, error) {
	if len(train) == 0 {
		return nil, errors.New("nn: Fit needs training samples")
	}
	if cfg.Epochs <= 0 {
		return nil, errors.New("nn: Fit needs positive epochs")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.BatchSize {
		workers = cfg.BatchSize
	}
	for _, s := range train {
		if len(s.X) != net.In.Size() || len(s.Y) != net.Out.Size() {
			return nil, fmt.Errorf("nn: sample shape mismatch (x %d want %d, y %d want %d)",
				len(s.X), net.In.Size(), len(s.Y), net.Out.Size())
		}
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xabcdef))
	clones := make([]*Network, workers)
	for i := range clones {
		clones[i] = net.Clone()
	}
	valNet := net.Clone()
	hist := &History{BestVal: math.Inf(1), BestEpoch: -1}
	masterParams := net.Params()
	for _, p := range masterParams {
		p.grad()
	}
	defer func() {
		for _, p := range masterParams {
			p.G = nil
		}
	}()
	var best [][]float64

	order := make([]int, len(train))
	for i := range order {
		order[i] = i
	}

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			batch := order[start:end]
			loss, err := parallelBatch(clones, train, batch, workers)
			if err != nil {
				return nil, err
			}
			// Reduce worker gradients into the master params.
			for wi := range clones {
				cp := clones[wi].Params()
				for pi, p := range masterParams {
					for gi, g := range cp[pi].G {
						p.G[gi] += g
					}
					for gi := range cp[pi].G {
						cp[pi].G[gi] = 0
					}
				}
			}
			opt.Step(masterParams, len(batch))
			net.ZeroGrad()
			// Weight each batch's mean loss by its size: averaging batch
			// means directly over-weights the final partial batch.
			epochLoss += loss * float64(len(batch))
		}
		trainLoss := epochLoss / float64(len(order))
		valLoss := trainLoss
		if len(val) > 0 {
			var err error
			valLoss, err = Evaluate(valNet, val)
			if err != nil {
				return nil, err
			}
		}
		hist.TrainLoss = append(hist.TrainLoss, trainLoss)
		hist.ValLoss = append(hist.ValLoss, valLoss)
		if valLoss < hist.BestVal {
			hist.BestVal = valLoss
			hist.BestEpoch = epoch
			best = snapshot(masterParams)
		}
		if cfg.Verbose != nil {
			cfg.Verbose(epoch, trainLoss, valLoss)
		}
		opt.NextEpoch()
	}
	if best != nil {
		for i, p := range masterParams {
			copy(p.W, best[i])
		}
	}
	return hist, nil
}

func snapshot(params []*Param) [][]float64 {
	out := make([][]float64, len(params))
	for i, p := range params {
		out[i] = append([]float64(nil), p.W...)
	}
	return out
}

// parallelBatch distributes the batch across worker clones and returns the
// mean sample loss. Each worker accumulates gradients into its own buffers.
func parallelBatch(clones []*Network, data []Sample, batch []int, workers int) (float64, error) {
	var wg sync.WaitGroup
	losses := make([]float64, workers)
	errs := make([]error, workers)
	per := (len(batch) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * per
		if lo >= len(batch) {
			break
		}
		hi := lo + per
		if hi > len(batch) {
			hi = len(batch)
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			netw := clones[w]
			grad := make([]float64, netw.Out.Size())
			for _, idx := range batch[lo:hi] {
				out, err := netw.Forward(data[idx].X)
				if err != nil {
					errs[w] = err
					return
				}
				loss, err := MSE(out, data[idx].Y, grad)
				if err != nil {
					errs[w] = err
					return
				}
				losses[w] += loss
				netw.Backward(grad)
			}
		}(w, lo, hi)
	}
	wg.Wait()
	var total float64
	for w := range losses {
		if errs[w] != nil {
			return 0, errs[w]
		}
		total += losses[w]
	}
	return total / float64(len(batch)), nil
}

// Evaluate returns the mean MSE over a sample set.
func Evaluate(net *Network, data []Sample) (float64, error) {
	if len(data) == 0 {
		return 0, errors.New("nn: Evaluate needs samples")
	}
	var sum float64
	for _, s := range data {
		out, err := net.Forward(s.X)
		if err != nil {
			return 0, err
		}
		loss, err := MSE(out, s.Y, nil)
		if err != nil {
			return 0, err
		}
		sum += loss
	}
	return sum / float64(len(data)), nil
}
