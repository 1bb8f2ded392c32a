// Parallel: the estimator registry and the worker-pool evaluation engine.
//
// The paper's evaluation compares 14 channel-estimation techniques over
// Table 2's set combinations. The engine walks each combination's test
// packets in order and fans the techniques of each packet out through a
// bounded worker pool: model caches are shared singleflight-style (one VVD
// training, one Kalman fit per combination), each reception is regenerated
// once and shared read-only, and every technique owns private estimator
// state — so the parallel result is byte-identical to the sequential one.
//
// This example also registers a 15th technique — a true-CIR oracle — to
// show that extending the comparison is one Register call, not an engine
// change.
//
// Run with:
//
//	go run ./examples/parallel
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"vvd/internal/core"
	"vvd/internal/dataset"
	"vvd/internal/experiments"
	"vvd/internal/nn"
)

func main() {
	p := experiments.DefaultParams()
	p.Campaign.Sets = 4
	p.Campaign.PacketsPerSet = 60
	p.Campaign.PSDULen = 48
	p.Combos = 2
	p.SkipPackets = 8
	p.Train = core.TrainConfig{
		Arch:   core.Arch{Conv1: 4, Conv2: 4, Conv3: 8, Conv4: 8, Dense: 32, Pool: nn.AvgPool},
		Epochs: 10, Batch: 16, Seed: 3, LR: 2e-3,
	}

	// A technique beyond the paper's 14: decode with the oracle block-fading
	// CIR the simulator actually applied. One Register call adds it to every
	// evaluation entry point.
	const oracle = "True CIR Oracle"
	experiments.Register(oracle, func(e *experiments.Engine, cb dataset.Combination) (experiments.Estimator, error) {
		return oracleEstimator{}, nil
	})

	fmt.Println("generating campaign...")
	e, err := experiments.NewEngine(p)
	if err != nil {
		log.Fatal(err)
	}
	techs := append(append([]string{}, core.AllTechniques...), oracle)

	// Sequential reference (also pays the one-off model training).
	e.P.Workers = 1
	start := time.Now()
	seq, err := e.Evaluate(techs)
	if err != nil {
		log.Fatal(err)
	}
	seqFirst := time.Since(start)
	start = time.Now()
	if _, err := e.Evaluate(techs); err != nil {
		log.Fatal(err)
	}
	seqWarm := time.Since(start)

	// Parallel fan-out over the warmed caches.
	e.P.Workers = runtime.GOMAXPROCS(0)
	start = time.Now()
	par, err := e.Evaluate(techs)
	if err != nil {
		log.Fatal(err)
	}
	parWarm := time.Since(start)

	fmt.Printf("\nsequential (cold, incl. training): %.1fs\n", seqFirst.Seconds())
	fmt.Printf("sequential (warm caches):          %.2fs\n", seqWarm.Seconds())
	fmt.Printf("parallel ×%d (warm caches):        %.2fs  (%.1fx speedup)\n",
		e.P.Workers, parWarm.Seconds(), seqWarm.Seconds()/parWarm.Seconds())

	identical := true
	for i := range seq {
		for name, a := range seq[i].Counters {
			b := par[i].Counters[name]
			if a.PacketErrs != b.PacketErrs || a.ChipErrs != b.ChipErrs || a.MSE() != b.MSE() { //vvdlint:bitexact -- the demo's claim is byte-identical parallel output
				identical = false
			}
		}
	}
	fmt.Printf("parallel results identical to sequential: %v\n\n", identical)

	fmt.Printf("%-28s %10s %10s\n", "technique (combo 1)", "PER", "CER")
	for _, name := range append([]string{oracle}, core.Fig12Techniques...) {
		if c, ok := seq[0].Counters[name]; ok {
			fmt.Printf("%-28s %10.3e %10.3e\n", name, c.PER(), c.CER())
		}
	}
}

// oracleEstimator returns the simulator's true block-fading CIR — an upper
// bound even on the paper's "Ground Truth" LS estimate.
type oracleEstimator struct{}

func (oracleEstimator) Name() string { return "True CIR Oracle" }

func (oracleEstimator) Estimate(k int, pkt *dataset.Packet) ([]complex128, experiments.Availability, error) {
	return pkt.TrueCIR, experiments.Available, nil
}
