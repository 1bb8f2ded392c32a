// Benchmarks of the hot paths that CI or EXPERIMENTS.md cite, or that
// nothing else measures: the parallel evaluation and generation engines,
// sync detection, FFT convolution, modulation, a training step, the
// batched inference engine and multi-link serving. The paper's tables and
// figures are printed by cmd/vvd-eval (`vvd-eval -figures all`), and
// perfbench times each layer. Expensive artifacts (campaign, trained
// CNNs) are built once and shared.
//
//	go test -bench=. -benchmem -run '^$' .
//
// Scale: benchmarks run the laptop-scale parameters recorded in
// EXPERIMENTS.md.
package vvd_test

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"
	"time"

	"vvd/internal/core"
	"vvd/internal/dataset"
	"vvd/internal/dsp"
	"vvd/internal/experiments"
	"vvd/internal/nn"
	"vvd/internal/phy"
	"vvd/internal/serve"
)

// benchParams is the shared laptop-scale configuration.
func benchParams() experiments.Params {
	p := experiments.DefaultParams()
	p.Campaign.Sets = 4
	p.Campaign.PacketsPerSet = 70
	p.Campaign.PSDULen = 64
	p.Campaign.Seed = 11
	p.Combos = 2
	p.Train.Epochs = 14
	p.SkipPackets = 8
	return p
}

var (
	engineOnce sync.Once
	engine     *experiments.Engine
	engineErr  error
)

func sharedEngine(b *testing.B) *experiments.Engine {
	b.Helper()
	engineOnce.Do(func() {
		engine, engineErr = experiments.NewEngine(benchParams())
	})
	if engineErr != nil {
		b.Fatal(engineErr)
	}
	return engine
}

// ---------- Parallel evaluation engine ----------

// benchEvaluate measures the full 14-technique × all-combination decode
// comparison at a fixed worker count. The shared engine's models are
// warmed first, so iterations time the packet-major technique fan-out
// itself — compare Workers1 against WorkersMax for the parallel speedup.
func benchEvaluate(b *testing.B, workers int) {
	e := sharedEngine(b)
	orig := e.P.Workers
	e.P.Workers = workers
	defer func() { e.P.Workers = orig }()
	if _, err := e.Evaluate(core.AllTechniques); err != nil { // warm model caches
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Evaluate(core.AllTechniques); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluateWorkers1(b *testing.B) { benchEvaluate(b, 1) }

func BenchmarkEvaluateWorkersMax(b *testing.B) { benchEvaluate(b, runtime.GOMAXPROCS(0)) }

// ---------- Campaign generation (the synthesis hot path) ----------

// benchCampaignGenerate measures full campaign synthesis — packet
// pipeline, channel, receiver estimates and depth images — of cfg.
// Allocations are reported: the fused signal chain, transmit cache and
// frame memoization are pinned by allocs/op as much as by ns/op. The
// first iteration also reports live-B/packet: the heap a generated
// campaign keeps alive (estimates, images, transmit cache), measured after
// a forced GC with the timer stopped and divided by the packet count.
func benchCampaignGenerate(b *testing.B, cfg dataset.Config) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var before runtime.MemStats
		if i == 0 {
			b.StopTimer()
			runtime.GC()
			runtime.ReadMemStats(&before)
			b.StartTimer()
		}
		c, err := dataset.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.StopTimer()
			packets := float64(len(c.Sets) * len(c.Sets[0].Packets))
			runtime.GC()
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(c)
			b.ReportMetric(packets, "packets")
			b.ReportMetric((float64(after.HeapAlloc)-float64(before.HeapAlloc))/packets, "live-B/packet")
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(cfg.Sets*cfg.PacketsPerSet)*float64(b.N)/b.Elapsed().Seconds(), "packets/s")
}

// benchCampaign is the benchmark campaign (4×70 packets, PSDU 64, with
// images) at a fixed worker count.
func benchCampaign(workers int) dataset.Config {
	cfg := benchParams().Campaign
	cfg.Workers = workers
	return cfg
}

func BenchmarkCampaignGenerate1(b *testing.B) { benchCampaignGenerate(b, benchCampaign(1)) }

func BenchmarkCampaignGenerateMax(b *testing.B) {
	benchCampaignGenerate(b, benchCampaign(runtime.GOMAXPROCS(0)))
}

// BenchmarkCampaignGeneratePaperScale generates dataset.DefaultConfig (15
// sets × 120 packets, PSDU 127, with images) on all cores; live-B/packet ×
// packets is the heap a paper-scale campaign holds.
func BenchmarkCampaignGeneratePaperScale(b *testing.B) {
	cfg := dataset.DefaultConfig()
	cfg.Workers = runtime.GOMAXPROCS(0)
	benchCampaignGenerate(b, cfg)
}

// BenchmarkSyncDetect measures preamble detection (normalized sync
// correlation over the lag window) on a regenerated reception.
func BenchmarkSyncDetect(b *testing.B) {
	e := sharedEngine(b)
	cb := e.Combos()[0]
	_, _, rec, err := e.Campaign.ReceptionPacket(e.Campaign.TestPackets(cb)[0])
	if err != nil {
		b.Fatal(err)
	}
	rx := e.Campaign.Receiver
	rxc, _ := rx.CorrectCFO(rec.Waveform)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, peak, _ := rx.DetectPreamble(rxc); !ok && peak < 0 {
			b.Fatal("impossible sync statistic")
		}
	}
}

// BenchmarkConvolveFFT compares the direct and FFT convolution paths at
// the sizes the receiver chain actually uses: the 11-tap CIR stays
// direct (below the cutoff), the SHR-length reference rides the FFT.
func BenchmarkConvolveFFT(b *testing.B) {
	rng := rand.New(rand.NewPCG(31, 62))
	x := make([]complex128, 34052) // full 64-byte-PSDU waveform length
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	for _, taps := range []int{11, 41, 256, 1284} {
		h := make([]complex128, taps)
		for i := range h {
			h[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		b.Run(fmt.Sprintf("taps%d", taps), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = dsp.Convolve(x, h)
			}
		})
	}
	b.Run("crosscorr-shr", func(b *testing.B) {
		ref := make([]complex128, 1284)
		for i := range ref {
			ref[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = dsp.CrossCorrelate(x, ref)
		}
	})
}

// ---------- Micro-benchmarks of the hot paths ----------

// BenchmarkVVDInferencePaperArch measures the full Fig. 8 network forward.
func BenchmarkVVDInferencePaperArch(b *testing.B) {
	net, err := core.BuildNetwork(core.PaperArch(), rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, core.InputShape.Size())
	for i := range x {
		x[i] = float64(i%17) / 17
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Forward(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModulatePacket measures O-QPSK modulation of a full PPDU.
func BenchmarkModulatePacket(b *testing.B) {
	mod := phy.NewModulator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := dataset.BuildTx(mod, byte(i), 127); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModulateChipsInto measures what generation and regeneration
// pay per packet to rebuild a transmit waveform from its cached chips: one
// modulation at the benchmark campaign's PSDU length into a reused buffer.
// Compare it with BenchmarkCampaignGenerate1's time per packet.
func BenchmarkModulateChipsInto(b *testing.B) {
	mod := phy.NewModulator()
	_, wave, chips, err := dataset.BuildTx(mod, 1, benchParams().Campaign.PSDULen)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wave = mod.ModulateChipsInto(wave, chips)
	}
}

// BenchmarkCNNTrainingStep measures one mini-batch gradient step of the
// scaled architecture.
func BenchmarkCNNTrainingStep(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 4))
	net, err := core.BuildNetwork(core.ScaledArch(), rng)
	if err != nil {
		b.Fatal(err)
	}
	samples := make([]nn.Sample, 16)
	for i := range samples {
		x := make([]float64, core.InputShape.Size())
		for j := range x {
			x[j] = rng.Float64()
		}
		y := make([]float64, core.OutputUnits)
		for j := range y {
			y[j] = rng.NormFloat64() * 0.1
		}
		samples[i] = nn.Sample{X: x, Y: y}
	}
	opt := nn.NewNadam()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nn.Fit(net, opt, samples, nil, nn.TrainConfig{Epochs: 1, BatchSize: 16, Workers: 4, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------- Batched inference (the serving hot path) ----------

// BenchmarkInferenceEngine measures the compiled GEMM inference engine on
// the scaled paper network at batch sizes 1, 8 and 32, reporting frames/s.
// Sub-benchmarks are named f32/batchN; run with -benchmem: a steady-state single-frame forward allocates
// nothing (pooled arenas, caller-provided outputs); larger batches
// allocate only the goroutines of GEMM calls that fan out across cores.
func BenchmarkInferenceEngine(b *testing.B) {
	net, err := core.BuildNetwork(core.ScaledArch(), rand.New(rand.NewPCG(5, 9)))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(10, 20))
	mkBatch := func(batch int) [][]float32 {
		ins := make([][]float32, batch)
		for s := range ins {
			x := make([]float32, core.InputShape.Size())
			for i := range x {
				x[i] = float32(rng.Float64()*4 + 0.5)
			}
			ins[s] = x
		}
		return ins
	}
	eng, err := nn.NewInferenceEngine(net)
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("f32/batch%d", batch), func(b *testing.B) {
			ins := mkBatch(batch)
			outs := make([][]float32, batch)
			for s := range outs {
				outs[s] = make([]float32, core.OutputUnits)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.ForwardBatchF32Into(ins, outs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
		})
	}
}

// ---------- Multi-link serving (internal/serve) ----------

// benchServeLinks drives the serving pipeline with a real trained model
// under nLinks concurrent link sessions: a feeder submits camera frames in
// bursts (so newer frames supersede pending ones) while every link waits
// for each newly published estimate and Fetches it. Reported metrics are
// sustained inference and serving throughput plus the mean estimate age
// links observed — the multi-link claim of paper §6.6/Table 1 under load.
// frames/s counts inferred (published) frames only; superseded frames are
// never inferred.
func benchServeLinks(b *testing.B, nLinks int) {
	e := sharedEngine(b)
	cb := e.Combos()[0]
	v, err := e.VVDFor(cb, dataset.LagCurrent)
	if err != nil {
		b.Fatal(err)
	}
	img := e.Campaign.Sets[cb.Test-1].Packets[0].Images[dataset.LagCurrent]
	svc, err := serve.New(serve.Config{Estimator: v.Clone(), InputSize: len(img)})
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < nLinks; i++ {
		id := fmt.Sprintf("link-%04d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var seen uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, ok := svc.WaitFor(seen+1, 20*time.Millisecond); !ok {
					continue
				}
				est, err := svc.Fetch(id)
				if err != nil {
					b.Error(err)
					return
				}
				seen = est.FrameSeq
			}
		}()
	}
	const burst = 8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var last uint64
		for j := 0; j < burst; j++ {
			seq, _, err := svc.Submit(img)
			if err != nil {
				b.Fatal(err)
			}
			last = seq
		}
		if _, ok := svc.WaitFor(last, 30*time.Second); !ok {
			b.Fatal("estimate never published")
		}
	}
	b.StopTimer()
	m := svc.Metrics()
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(m.FramesInferred)/elapsed, "frames/s")
		b.ReportMetric(float64(m.EstimatesServed)/elapsed, "served/s")
	}
	var ageTotal time.Duration
	var served uint64
	for _, st := range svc.Links() {
		ageTotal += st.MeanAge * time.Duration(st.Served)
		served += st.Served
	}
	if served > 0 {
		b.ReportMetric(float64(ageTotal/time.Duration(served))/float64(time.Millisecond), "age-ms")
	}
	close(done)
	wg.Wait()
	if err := svc.Close(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkServeLinks1(b *testing.B)    { benchServeLinks(b, 1) }
func BenchmarkServeLinks100(b *testing.B)  { benchServeLinks(b, 100) }
func BenchmarkServeLinks1000(b *testing.B) { benchServeLinks(b, 1000) }
