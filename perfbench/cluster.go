package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"path/filepath"
	"sync"
	"time"

	"vvd/internal/camera"
	"vvd/internal/core"
	"vvd/internal/dataset"
	"vvd/internal/room"
	"vvd/internal/serve"
	"vvd/internal/shard"
	"vvd/internal/store"
	"vvd/internal/store/registry"
	"vvd/internal/wire"
)

const (
	numBackends = 2
	// numClients is the load generator's connection count: one per core of
	// the reference machine (nproc = 2).
	numClients = 2
	numFrames  = 240 // eight seconds of camera walk
	setupReps  = 41
	modelName  = "vvd-bench"
	// submitWait is the server-side estimate wait every submit asks for.
	submitWait = time.Second
)

// inputs are the generated inputs of the serving phases: a seeded,
// untrained ScaledArch model (inference cost does not depend on the
// weights), depth frames rendered by the camera along a seeded walk, and
// each frame's estimate from a direct core.VVD.Estimate for the bit-exact
// reply check.
type inputs struct {
	model    *core.VVD
	frames   [][]float32
	expected [][]complex64
}

func newInputs(seed uint64) (*inputs, error) {
	rng := rand.New(rand.NewPCG(seed, seed^0x5eed))
	network, err := core.BuildNetwork(core.ScaledArch(), rng)
	if err != nil {
		return nil, err
	}
	mean := make([]complex128, core.OutputTaps)
	for i := range mean {
		mean[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * 0.01
	}
	in := &inputs{model: &core.VVD{Net: network, Norm: 0.05, Mean: mean, Lag: dataset.LagCurrent}}
	lab := room.DefaultLab()
	cam := camera.New(lab, 90)
	walker := room.NewWalker(lab.MovementArea, room.DefaultMobility(), rand.New(rand.NewPCG(seed, 0x3a1c)))
	for i := 0; i < numFrames; i++ {
		pos := walker.Step(camera.FrameInterval)
		frame := cam.RenderPreprocessed(room.DefaultHuman(pos)).NormalizedF32(cam.MaxRange)
		h, err := in.model.Estimate(frame)
		if err != nil {
			return nil, err
		}
		want := make([]complex64, len(h))
		for j, c := range h {
			want[j] = complex64(c)
		}
		in.frames = append(in.frames, frame)
		in.expected = append(in.expected, want)
	}
	return in, nil
}

// check holds one estimate reply to the output checks: 11 finite taps, and
// a reply inferred from the submitted frame itself (FrameSeq ==
// SubmittedSeq) bit-identical to the direct estimate of that frame.
// frame < 0 skips the identity check (fetch replies).
func (in *inputs) check(r *wire.EstimateReply, frame int) error {
	if len(r.CIR) != core.OutputTaps {
		return fmt.Errorf("reply has %d taps, want %d", len(r.CIR), core.OutputTaps)
	}
	for i, c := range r.CIR {
		if re, im := float64(real(c)), float64(imag(c)); math.IsNaN(re) || math.IsInf(re, 0) || math.IsNaN(im) || math.IsInf(im, 0) {
			return fmt.Errorf("reply tap %d is %v", i, c)
		}
	}
	if frame >= 0 && r.FrameSeq == r.SubmittedSeq {
		for i, c := range r.CIR {
			if c != in.expected[frame][i] {
				return fmt.Errorf("frame %d tap %d: served %v, direct estimate %v", frame, i, c, in.expected[frame][i])
			}
		}
	}
	return nil
}

// cluster is the in-process serving cluster on loopback sockets: two
// backends, each a serve.Service behind a wire.Server that loaded the model
// by ref from a KV-backed registry, and a shard.Router behind a front
// wire.Server, plus the load generator's client connections.
type cluster struct {
	kv       *store.KV
	svcs     []*serve.Service
	backends []*wire.Server
	router   *shard.Router
	front    *wire.Server
	clients  []*wire.Client
	lns      []net.Listener
	wg       sync.WaitGroup

	hash   string // registry content hash of the model
	served []string
}

// setUp brings the cluster up setupReps times, each from an empty store,
// tearing down all but the last; setup_s is the median bring-up time.
func setUp(dir string, in *inputs, tr *tracer, m *measurement) (*cluster, error) {
	var times, puts, loads []float64
	var cl *cluster
	for rep := 0; rep < setupReps; rep++ {
		if cl != nil {
			cl.close()
		}
		t0 := time.Now()
		c, put, ls, err := startCluster(filepath.Join(dir, fmt.Sprintf("kv-%d", rep)), in, tr, &m.tally)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		puts = append(puts, msOf(put))
		for _, l := range ls {
			loads = append(loads, msOf(l))
		}
		for b, h := range c.served {
			m.tally.add(h == c.hash, fmt.Sprintf("backend %d serves model %.12s, registry holds %.12s", b, h, c.hash))
		}
		cl = c
	}
	m.values["setup_s"] = median(times)
	m.layers["store.registry_put_ms"] = median(puts)
	m.layers["store.registry_load_ms"] = median(loads)
	return cl, nil
}

// startCluster registers the model, starts the backends, the router and
// the front server, dials the clients and warms every path once, holding
// each warm-up reply to the output checks in t.
func startCluster(dir string, in *inputs, tr *tracer, t *tally) (cl *cluster, put time.Duration, loads []time.Duration, err error) {
	cl = &cluster{}
	defer func() {
		if err != nil {
			cl.close()
		}
	}()
	if cl.kv, err = store.OpenKV(dir, store.KVOptions{}); err != nil {
		return
	}
	reg := registry.New(cl.kv)
	t0 := time.Now()
	man, err := reg.Put(in.model, registry.Manifest{Name: modelName})
	put = time.Since(t0)
	if err != nil {
		return
	}
	cl.hash = man.Hash
	addrs := make([]string, 0, numBackends)
	for b := 0; b < numBackends; b++ {
		t0 := time.Now()
		model, _, lerr := reg.Load(modelName + "@latest")
		loads = append(loads, time.Since(t0))
		if lerr != nil {
			return cl, put, loads, lerr
		}
		_, hash, herr := registry.Encode(model)
		if herr != nil {
			return cl, put, loads, herr
		}
		cl.served = append(cl.served, hash)
		var est serve.BatchEstimator = model
		if tr != nil {
			est = timedEstimator{est: model, tr: tr}
		}
		svc, serr := serve.New(serve.Config{Estimator: est, InputSize: model.Net.In.Size()})
		if serr != nil {
			return cl, put, loads, serr
		}
		cl.svcs = append(cl.svcs, svc)
		srv := wire.NewServer(wrapHandler(wire.NewServiceHandler(svc), tr, "backend", "router"), wire.ServerConfig{})
		cl.backends = append(cl.backends, srv)
		addr, lerr := cl.listen(srv, nil)
		if lerr != nil {
			return cl, put, loads, lerr
		}
		addrs = append(addrs, addr)
	}
	// Health probes are off: nothing fails in-process, and a probe per
	// second would be background load the workloads did not ask for.
	if cl.router, err = shard.NewRouter(shard.Config{Backends: addrs, HealthInterval: -1}); err != nil {
		return
	}
	cl.front = wire.NewServer(wrapHandler(cl.router, tr, "router", "client"), wire.ServerConfig{})
	addr, err := cl.listen(cl.front, tr)
	if err != nil {
		return
	}
	for i := 0; i < numClients; i++ {
		c, derr := wire.Dial(addr, wire.ClientConfig{})
		if derr != nil {
			return cl, put, loads, derr
		}
		cl.clients = append(cl.clients, c)
	}
	// Warm-up: every client connection, router pool slot and inference
	// engine carries traffic before anything is measured. The submits go
	// one at a time, so each reply is inferred from its own frame and must
	// be bit-identical to the direct estimate: every workload and every
	// bring-up runs the identity check.
	var reply wire.EstimateReply
	for i, c := range cl.clients {
		for k := 0; k < 8; k++ {
			if err = c.Submit(fmt.Sprintf("warm-%d-%d", i, k), in.frames[k], submitWait, &reply); err != nil {
				return
			}
			cerr := in.check(&reply, k)
			if cerr == nil && reply.FrameSeq != reply.SubmittedSeq {
				cerr = fmt.Errorf("warm-up submit %d was served frame %d", reply.SubmittedSeq, reply.FrameSeq)
			}
			t.add(cerr == nil, fmt.Sprint(cerr))
		}
	}
	return cl, put, loads, nil
}

// listen serves srv on a fresh loopback port; with a tracer the front
// server's bytes are counted.
func (cl *cluster) listen(srv *wire.Server, tr *tracer) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	cl.lns = append(cl.lns, ln)
	if tr != nil {
		ln = countingListener{Listener: ln, n: &tr.frontBytes}
	}
	cl.wg.Add(1)
	go func() {
		defer cl.wg.Done()
		_ = srv.Serve(ln) // returns once the server or listener is closed
	}()
	return ln.Addr().String(), nil
}

// close tears the cluster down front to back and waits for every serving
// goroutine to exit.
func (cl *cluster) close() {
	for _, c := range cl.clients {
		c.Close()
	}
	if cl.front != nil {
		cl.front.Close()
	}
	if cl.router != nil {
		cl.router.Close()
	}
	for _, s := range cl.backends {
		s.Close()
	}
	for _, ln := range cl.lns {
		ln.Close() // unblocks a Serve that had not registered its listener yet
	}
	cl.wg.Wait()
	for _, svc := range cl.svcs {
		svc.Close()
	}
	if cl.kv != nil {
		cl.kv.Close()
	}
}
