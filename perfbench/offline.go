package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"vvd/internal/core"
	"vvd/internal/dataset"
	"vvd/internal/experiments"
	"vvd/internal/scenario"
)

// The offline campaign: a few short sets, so that each round is short and a
// run holds many of them. The AR(20) Kalman fit needs more than 20 packets
// per set; the evaluation leaves out the first skipPackets of each test set
// while Kalman and the previous-estimate techniques warm up.
const (
	campaignSets    = 3
	campaignPackets = 24
	skipPackets     = 2
)

// minReps floors the time-boxed rounds: two generations so the campaign
// digest has a pair to compare, two evaluations so the results have a pair
// to compare.
const minReps = 2

// offlineRun is what the offline phases leave for the per-layer probes.
type offlineRun struct {
	campaign *dataset.Campaign // the last generated campaign
	engine   *experiments.Engine
	genWall  []float64 // seconds per generation
	packets  int
}

// phaseMem accumulates one phase's allocation and GC cycles over its
// repeats.
type phaseMem struct {
	alloc uint64
	gc    uint32
	reps  int
}

func memNow() (uint64, uint32) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.NumGC
}

// timed runs f once and adds its allocation and GC cycles.
func (p *phaseMem) timed(f func() error) error {
	a0, g0 := memNow()
	err := f()
	a1, g1 := memNow()
	p.alloc += a1 - a0
	p.gc += g1 - g0
	p.reps++
	return err
}

// record stores the phase's allocation (MB) and GC cycles per repeat.
func (p phaseMem) record(layers map[string]float64, phase string) {
	layers["runtime."+phase+".alloc_mb"] = float64(p.alloc) / float64(p.reps) / (1 << 20)
	layers["runtime."+phase+".gc_cycles"] = float64(p.gc) / float64(p.reps)
}

// runOffline runs the paper's pipeline in the paper's world (the
// paper-default scenario, one walker, 64-byte PSDUs, one Table 2
// combination): it generates the seeded campaign with images, trains every
// VVD model and Kalman filter the evaluation needs, then repeats rounds of a
// warm evaluation of all 14 techniques, a generation and a training probe
// for the workload's offline share of the budget.
//
// Every phase runs on one worker, and each figure is the fastest of its
// repeats, which are spread over the whole offline window. On a 2-vCPU VM
// shared with other tenants the machine has slow stretches of several
// seconds; with two workers, with medians of repeats, or with each phase's
// repeats run back to back, the figures moved by a fifth to a third between
// runs.
func runOffline(w workload, o options, tr *tracer, m *measurement) (*offlineRun, error) {
	cfg, err := scenario.Resolve("paper-default", dataset.DefaultConfig())
	if err != nil {
		return nil, err
	}
	cfg.Sets, cfg.PacketsPerSet, cfg.PSDULen = campaignSets, campaignPackets, 64
	cfg.Seed = o.Seed
	cfg.Workers = 1
	r := &offlineRun{packets: cfg.Sets * cfg.PacketsPerSet}

	var genMem, trainMem, evalMem phaseMem
	var digest string
	generate := func() error {
		t0 := tr.now()
		c, err := dataset.Generate(cfg)
		if err != nil {
			return err
		}
		tr.phase("offline.gen", t0)
		r.genWall = append(r.genWall, float64(tr.now()-t0)/1e9)
		d, err := campaignDigest(c)
		if err != nil {
			return err
		}
		m.tally.add(digest == "" || d == digest, "campaign digest differs between generations of one seed")
		if digest == "" {
			digest = d
		}
		r.campaign = c
		return nil
	}
	if err := genMem.timed(generate); err != nil {
		return nil, err
	}

	// Training: every model the evaluation resolves, timed per epoch. The
	// first epoch of each model also pays its sample preparation.
	var epochs []float64
	var last int64
	p := experiments.Params{
		Campaign:    cfg,
		Combos:      1,
		SkipPackets: skipPackets,
		Workers:     1,
		Train: core.TrainConfig{
			Arch: core.ScaledArch(), Epochs: w.Epochs, Batch: 16, Workers: 1, Seed: o.Seed, LR: 2.5e-3,
			Verbose: func(int, float64, float64) {
				now := tr.now()
				epochs = append(epochs, float64(now-last)/1e9)
				last = now
			},
		},
	}
	e := experiments.NewEngineFromCampaign(r.campaign, p)
	r.engine = e
	lags := []dataset.ImageLag{dataset.LagCurrent, dataset.Lag33ms, dataset.Lag100ms}
	err = trainMem.timed(func() error {
		for _, cb := range e.Combos() {
			for _, lag := range lags {
				last = tr.now()
				t0 := last
				v, err := e.VVDFor(cb, lag)
				m.tally.add(err == nil && v != nil, fmt.Sprintf("training VVD lag %d: %v", lag, err))
				if err != nil {
					return err
				}
				tr.phase("offline.train", t0)
			}
			for _, order := range []int{1, 5, 20} {
				_, err := e.KalmanFor(cb, order)
				m.tally.add(err == nil, fmt.Sprintf("fitting Kalman AR(%d): %v", order, err))
				if err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	trainMem.record(m.layers, "train")

	var evals []float64
	var first []*experiments.ComboResult
	evaluate := func() error {
		t0 := tr.now()
		res, err := e.Evaluate(nil)
		if err != nil {
			return err
		}
		tr.phase("offline.eval", t0)
		evals = append(evals, float64(tr.now()-t0)/1e9)
		err = checkEvaluation(res, first)
		m.tally.add(err == nil, fmt.Sprint(err))
		if first == nil {
			first = res
		}
		return nil
	}
	// The training probe trains one model for two epochs; its second epoch
	// pays no sample preparation.
	probe := p.Train
	probe.Epochs = 2
	start := time.Now()
	for round := 0; round < minReps || time.Since(start) < o.share(w.OfflineShare); round++ {
		if err := evalMem.timed(evaluate); err != nil {
			return nil, err
		}
		if err := genMem.timed(generate); err != nil {
			return nil, err
		}
		last = tr.now()
		t0 := last
		_, _, err := core.Train(r.campaign, e.Combos()[0], lags[round%len(lags)], probe)
		m.tally.add(err == nil, fmt.Sprintf("training probe: %v", err))
		if err != nil {
			return nil, err
		}
		tr.phase("offline.train", t0)
	}
	genMem.record(m.layers, "gen")
	evalMem.record(m.layers, "eval")
	m.layers["train_epoch_s"] = slices.Min(epochs)
	m.layers["gen_packets_per_s"] = float64(r.packets) / slices.Min(r.genWall)
	m.layers["eval_s"] = slices.Min(evals)
	return r, nil
}

// campaignDigest is the SHA-256 of the campaign's store encoding, which
// covers every packet, image and the generating configuration.
func campaignDigest(c *dataset.Campaign) (string, error) {
	h := sha256.New()
	if err := c.Save(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkEvaluation holds one Evaluate result to the output checks: every
// technique reports, every MSE is finite, availability lies in [0,1],
// perfect (Ground Truth) estimation decodes no worse than no estimation
// (Standard Decoding) beyond sampling noise, and a repeat matches the first evaluation exactly.
func checkEvaluation(res, first []*experiments.ComboResult) error {
	if first != nil && len(first) != len(res) {
		return fmt.Errorf("evaluation returned %d combinations, first returned %d", len(res), len(first))
	}
	for i, r := range res {
		for _, name := range core.AllTechniques {
			c, ok := r.Counters[name]
			if !ok {
				return fmt.Errorf("combination %d: %s did not report", r.Combo.Number, name)
			}
			if mse := c.MSE(); c.HasMSE() && (math.IsNaN(mse) || math.IsInf(mse, 0)) {
				return fmt.Errorf("combination %d: %s MSE %v", r.Combo.Number, name, mse)
			}
			if a := c.Availability(); a < 0 || a > 1 {
				return fmt.Errorf("combination %d: %s availability %v", r.Combo.Number, name, a)
			}
			if first != nil {
				if prev := first[i].Counters[name]; prev == nil || *prev != *c {
					return fmt.Errorf("combination %d: %s differs between evaluations", r.Combo.Number, name)
				}
			}
		}
		// Perfect estimation must not decode worse than no estimation beyond
		// the sampling noise of a small test set: two standard deviations of
		// the difference of two packet-error counts.
		gt, std := r.Counters[core.TechGroundTruth], r.Counters[core.TechStandard]
		if slack := 2 * math.Sqrt(float64(gt.PacketErrs+std.PacketErrs)); float64(gt.PacketErrs-std.PacketErrs) > slack {
			return fmt.Errorf("combination %d: Ground Truth PER %.3f above Standard Decoding PER %.3f beyond sampling noise", r.Combo.Number, gt.PER(), std.PER())
		}
	}
	return nil
}
