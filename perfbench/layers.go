package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"vvd/internal/camera"
	"vvd/internal/channel"
	"vvd/internal/core"
	"vvd/internal/dataset"
	"vvd/internal/dsp"
	"vvd/internal/mathx/gemm"
	"vvd/internal/nn"
	"vvd/internal/phy"
	"vvd/internal/room"
	"vvd/internal/wire"
)

// servingBatch is the batch the serving engine runs at full queue
// (serve.Config.MaxBatch default).
const servingBatch = 8

// offlineProbes times the generation, training and evaluation layers'
// public calls on the pass's own campaign and models.
func offlineProbes(off *offlineRun, layers map[string]float64) error {
	if err := generationStages(off, layers); err != nil {
		return err
	}
	cb := off.engine.Combos()[0]
	vvd, err := off.engine.VVDFor(cb, dataset.LagCurrent)
	if err != nil {
		return err
	}
	test := off.campaign.TestPackets(cb)
	pkt := test[len(test)/2]
	if err := trainingLayers(vvd, pkt, layers); err != nil {
		return err
	}
	return evaluationStages(off, vvd, pkt, layers)
}

// servingProbes times the inference kernels and reads the serving layers'
// counters after the load phases.
func servingProbes(cl *cluster, in *inputs, layers map[string]float64) error {
	if err := inferenceKernels(in, layers); err != nil {
		return err
	}
	servingCounters(cl, layers)
	return nil
}

// generationStages replays the calls dataset.Generate makes per packet on a
// sample of the generated packets. Stage times are per packet and
// disjoint: channel.transmit_us is the transmit call's self time (the
// convolution) without the CIR and impairment it encloses, and the camera
// renders two new frames per packet (its LED frame and the one before; the
// 100 ms frame is the previous packet's LED frame).
func generationStages(off *offlineRun, layers map[string]float64) error {
	c := off.campaign
	sample := c.Sets[0].Packets
	if len(sample) > 8 {
		sample = sample[:8]
	}
	var cir, transmit, impair, sync, ls, render time.Duration
	for i := range sample {
		pkt := &sample[i]
		bodies := pkt.Bodies(c.Cfg)
		_, wave, _, err := dataset.BuildTx(phy.NewModulator(), pkt.SeqNum, c.Cfg.PSDULen)
		if err != nil {
			return err
		}
		power := dsp.Power(wave)
		solver, err := c.Receiver.GroundTruthSolver(wave)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewPCG(pkt.LinkSeed, 1))
		link := channel.NewLink(c.Model, c.Cfg.Imp, rng)
		cir += perCall(5, 20, func() { c.Model.CIRMulti(bodies) })
		var buf []complex128
		transmit += perCall(5, 3, func() {
			rec := link.TransmitMultiBufPow(wave, power, bodies, buf)
			buf = rec.Waveform
		})
		noise := power * c.Model.ClearGain() / math.Pow(10, c.Cfg.Imp.SNRdB/10)
		rx := append([]complex128(nil), buf...)
		impair += perCall(5, 3, func() { dsp.Impair(rx, 0.3, 20, c.Model.SampleRate, noise, rng) })
		sync += perCall(5, 3, func() {
			c.Receiver.CorrectCFOInPlace(rx)
			c.Receiver.DetectPreamble(rx)
		})
		var lsErr error
		ls += perCall(5, 3, func() {
			if _, err := solver.Estimate(rx); err != nil {
				lsErr = err
			}
			if _, err := c.Receiver.EstimatePreamble(rx); err != nil {
				lsErr = err
			}
		})
		if lsErr != nil {
			return lsErr
		}
		render += perCall(5, 5, func() { c.Camera.RenderPreprocessedMulti(bodies).NormalizedF32(c.Camera.MaxRange) })
	}
	n := time.Duration(len(sample))
	cir, transmit, impair, sync, ls, render = cir/n, transmit/n, impair/n, sync/n, ls/n, render/n

	crowd := room.NewCrowd(c.Room.MovementArea, c.Cfg.Mobility, max(c.Cfg.NumOccupants(), 1),
		func(i int) *rand.Rand { return rand.New(rand.NewPCG(uint64(i), 7)) }, 0)
	framesPerPacket := time.Duration(math.Round(dataset.PacketInterval * camera.FrameRate))
	trajectory := framesPerPacket * perCall(5, 300, func() { crowd.Step(camera.FrameInterval) })

	transmitSelf := max(transmit-cir-impair, 0)
	layers["room.trajectory_us"] = usOf(trajectory)
	layers["channel.cir_us"] = usOf(cir)
	layers["channel.transmit_us"] = usOf(transmitSelf)
	layers["dsp.impair_us"] = usOf(impair)
	layers["estimate.sync_us"] = usOf(sync)
	layers["estimate.ls_us"] = usOf(ls)
	layers["camera.render_us"] = usOf(render)
	// Generation runs Workers goroutines, so one packet costs wall time ×
	// workers / packets of CPU.
	perPacket := median(off.genWall) * float64(c.Cfg.Workers) / float64(off.packets)
	accounted := trajectory + transmit + sync + ls + 2*render
	layers["dataset.accounted_share"] = accounted.Seconds() / perPacket
	return nil
}

// trainingLayers times Forward and Backward of every conv, pool and dense
// layer, one Nadam update and one training step of a 16-sample batch, on
// a private copy of the trained network.
func trainingLayers(v *core.VVD, pkt *dataset.Packet, layers map[string]float64) error {
	net, err := core.BuildNetwork(core.ScaledArch(), rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		return err
	}
	if err := net.CopyWeightsFrom(v.Net); err != nil {
		return err
	}
	img := pkt.Images[dataset.LagCurrent]
	x := make([]float64, len(img))
	for i, p := range img {
		x[i] = float64(p)
	}
	ins := make([][]float64, len(net.Layers))
	out := x
	for i, l := range net.Layers {
		ins[i] = out
		out = l.Forward(out)
	}
	gouts := make([][]float64, len(net.Layers))
	g := make([]float64, len(out))
	for i := range g {
		g[i] = 0.01
	}
	for i := len(net.Layers) - 1; i >= 0; i-- {
		gouts[i] = g
		g = net.Layers[i].Backward(g)
	}
	for _, nl := range nnLayers {
		l, in, gout := net.Layers[nl.Index], ins[nl.Index], gouts[nl.Index]
		fwd := perCall(7, 5, func() { l.Forward(in) })
		bwd := perCall(7, 5, func() { l.Backward(gout) }) // the forward cache holds in
		layers[fmt.Sprintf("nn.L%d.%s.fwd_us", nl.Index, nl.Kind)] = usOf(fwd)
		layers[fmt.Sprintf("nn.L%d.%s.bwd_us", nl.Index, nl.Kind)] = usOf(bwd)
	}
	opt := nn.NewNadam()
	params := net.Params()
	layers["nn.nadam_us"] = usOf(perCall(7, 5, func() { opt.Step(params, 16) }))
	y := make([]float64, net.Out.Size())
	grad := make([]float64, net.Out.Size())
	var stepErr error
	step := perCall(5, 1, func() {
		for s := 0; s < 16; s++ {
			o, err := net.Forward(x)
			if err != nil {
				stepErr = err
				return
			}
			if _, err := nn.MSE(o, y, grad); err != nil {
				stepErr = err
				return
			}
			net.Backward(grad)
		}
		opt.Step(params, 16)
		net.ZeroGrad()
	})
	layers["nn.step_ms"] = msOf(step)
	return stepErr
}

// evaluationStages times, per test packet, the calls Engine.Evaluate makes.
func evaluationStages(off *offlineRun, v *core.VVD, pkt *dataset.Packet, layers map[string]float64) error {
	c, e := off.campaign, off.engine
	cb := e.Combos()[0]
	rx := c.Receiver
	layers["dataset.reception_us"] = usOf(perCall(5, 3, func() { c.Reception(cb.Test, pkt.Index) }))
	ppdu, _, txChips, rec, err := c.Reception(cb.Test, pkt.Index)
	if err != nil {
		return err
	}
	layers["estimate.cfo_us"] = usOf(perCall(5, 3, func() { rx.CorrectCFO(rec.Waveform) }))
	rxc, _ := rx.CorrectCFO(rec.Waveform)
	layers["estimate.decode_us"] = usOf(perCall(5, 3, func() { rx.Decode(rxc, ppdu, txChips, pkt.Perfect) }))
	layers["phy.despread_us"] = usOf(perCall(5, 50, func() { phy.DespreadChips(txChips) }))
	clone := v.Clone()
	img := pkt.Images[dataset.LagCurrent]
	layers["core.vvd_estimate_us"] = usOf(perCall(7, 20, func() { clone.Estimate(img) }))
	k, err := e.KalmanFor(cb, 20)
	if err != nil {
		return err
	}
	layers["kalman.predict_us"] = usOf(perCall(5, 20, func() { k.Predict() }))
	return nil
}

// inferenceKernels times the compiled engine at the serving batch and
// Sgemm at each conv and dense layer's shape for that batch.
func inferenceKernels(in *inputs, layers map[string]float64) error {
	eng, err := in.model.Engine()
	if err != nil {
		return err
	}
	batch := in.frames[:servingBatch]
	outs := make([][]float32, servingBatch)
	for i := range outs {
		outs[i] = make([]float32, eng.OutShape().Size())
	}
	var ferr error
	d := perCall(7, 10, func() {
		if err := eng.ForwardBatchF32Into(batch, outs); err != nil {
			ferr = err
		}
	})
	if ferr != nil {
		return ferr
	}
	layers["nn.engine_frame_us"] = usOf(d / servingBatch)

	net, err := core.BuildNetwork(core.ScaledArch(), nil)
	if err != nil {
		return err
	}
	shape := net.In
	for i, l := range net.Layers {
		out, err := l.OutShape(shape)
		if err != nil {
			return err
		}
		var m, k, n int
		switch t := l.(type) {
		case *nn.Conv2D:
			m, k, n = servingBatch*out.H*out.W, t.KH*t.KW*shape.C, t.Filters
		case *nn.Dense:
			m, k, n = servingBatch, shape.Size(), t.Units
		}
		shape = out
		if m == 0 {
			continue
		}
		a, b, c := make([]float32, m*k), make([]float32, k*n), make([]float32, m*n)
		for j := range a {
			a[j] = float32(j%7) * 0.1
		}
		for j := range b {
			b[j] = float32(j%5) * 0.1
		}
		flop := 2 * float64(m) * float64(k) * float64(n)
		dt := perCall(7, max(1, int(2e6/flop)), func() { gemm.Sgemm(m, k, n, a, b, c) })
		layers[fmt.Sprintf("gemm.L%d.gflops", i)] = flop / dt.Seconds() / 1e9
		layers[fmt.Sprintf("gemm.L%d.mflop", i)] = flop / 1e6
	}
	return nil
}

// servingCounters reads the serving layers' own counters and times one
// backend fetch handler.
func servingCounters(cl *cluster, layers map[string]float64) {
	var frames, batches, dropped uint64
	for _, svc := range cl.svcs {
		mt := svc.Metrics()
		frames += mt.FramesInferred
		batches += mt.Batches
		dropped += mt.FramesDropped
	}
	layers["serve.batch_mean"] = float64(frames) / float64(max(batches, 1))
	layers["serve.frames_dropped"] = float64(dropped)

	h := wire.NewServiceHandler(cl.svcs[0])
	var reply wire.EstimateReply
	layers["serve.fetch_us"] = usOf(perCall(7, 200, func() { h.Fetch("probe", &reply) }))

	st := cl.router.Status()
	var maxReq, sumReq, sheds uint64
	for _, s := range st {
		maxReq = max(maxReq, s.Requests)
		sumReq += s.Requests
		sheds += s.Sheds
	}
	layers["shard.imbalance"] = float64(maxReq) * float64(len(st)) / float64(max(sumReq, 1))
	sheds += cl.front.Sheds()
	for _, b := range cl.backends {
		sheds += b.Sheds()
	}
	layers["wire.sheds"] = float64(sheds)
}
