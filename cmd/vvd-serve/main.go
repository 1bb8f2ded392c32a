// Command vvd-serve runs the multi-link estimation service over HTTP: a
// trained VVD model that infers the newest submitted depth frame and
// serves the fresh CIR estimate to any number of link sessions (paper
// §6.6 — one camera stream serves every link in the room).
//
// Usage:
//
//	vvd-serve -model vvd.model -addr :8990
//	vvd-serve -demo
//	vvd-serve -stub 1.6ms -wire :9990     # benchmark backend, binary protocol
//
// With -model, the server waits for depth frames to be POSTed (a camera
// gateway would do this); -demo instead simulates the whole deployment:
// it generates a small campaign, trains a tiny model on it (about a
// minute) and feeds the held-out take's frames in a loop at 30 fps, so
// every endpoint serves live data immediately.
//
// Endpoints (JSON):
//
//	POST   /estimate   {"link":"sensor-1","image":[...4500 floats...]}
//	                   submit a frame and return the resulting estimate
//	GET    /estimate?link=sensor-1    freshest estimate for a link session
//	GET    /links                     per-session serving statistics
//	DELETE /links?id=sensor-1         close a link session
//	GET    /metricsz                  pipeline counters
//
// With -wire ADDR the same service also listens for the binary wire
// protocol (internal/wire) — the transport vvd-router and vvd-load
// speak. Both listeners dispatch to one wire.Handler, so they answer
// with the same verdicts, and either can close link sessions, so
// -maxlinks binds both. With -stub DURATION the server runs
// serve.StubEstimator at a fixed cost per inference instead of a model:
// a benchmark backend of known inference latency for cluster
// measurements.
//
// Try it:
//
//	curl -s localhost:8990/estimate?link=sensor-1 | head
//	curl -s localhost:8990/metricsz
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vvd/internal/camera"
	"vvd/internal/core"
	"vvd/internal/dataset"
	"vvd/internal/nn"
	"vvd/internal/serve"
	"vvd/internal/store/registry"
	"vvd/internal/wire"
)

// stubPixels is the frame size the stub estimator accepts: the CNN
// input, one cropped depth frame.
const stubPixels = camera.CropRows * camera.CropCols

func main() {
	var (
		modelPath = flag.String("model", "vvd.model", "model file from vvd-train, or a registry ref (name@latest, name@hash) with -registry")
		regDir    = flag.String("registry", "", "content-addressed model registry directory (makes -model accept name@version refs)")
		addr      = flag.String("addr", ":8990", "HTTP listen address")
		wireAddr  = flag.String("wire", "", "also listen for the binary wire protocol on this address (empty = HTTP only)")
		maxLinks  = flag.Int("maxlinks", 10000, "max open link sessions (0 = unlimited)")
		demo      = flag.Bool("demo", false, "train a tiny model and feed simulated camera frames")
		stub      = flag.Duration("stub", -1, "serve a stub estimator with this fixed latency per inference instead of a model (0 for instant; negative disables)")
	)
	flag.Parse()

	var model *core.VVD
	var feed [][]float32
	switch {
	case *stub >= 0:
		// Benchmark backend: deterministic CIRs at a known cost per
		// inference, no model required (see serve.StubEstimator).
		fmt.Printf("stub estimator: %d-pixel frames, %v per inference\n", stubPixels, *stub)
	case *demo:
		var err error
		if model, feed, err = demoModel(); err != nil {
			fatal(err)
		}
	case *regDir != "" || registry.IsRef(*modelPath):
		if *regDir == "" {
			fatal(fmt.Errorf("-model %s is a registry ref: pass -registry <dir>", *modelPath))
		}
		reg, err := registry.OpenDir(*regDir)
		if err != nil {
			fatal(err)
		}
		var m registry.Manifest
		model, m, err = reg.Load(*modelPath)
		reg.Close() // read-only, and the directory is free for vvd-train again
		if err != nil {
			fatal(err)
		}
		fmt.Printf("loaded %s@%.12s: VVD lag %d, %d parameters (scenario %q, campaign %.12s)\n",
			m.Name, m.Hash, model.Lag, model.Net.NumParams(), m.Scenario, m.CampaignHash)
	default:
		f, err := os.Open(*modelPath)
		if err != nil {
			fatal(fmt.Errorf("%w (train one with vvd-train, or use -demo)", err))
		}
		model, err = core.LoadModel(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("loaded %s: VVD lag %d, %d parameters\n", *modelPath, model.Lag, model.Net.NumParams())
	}

	scfg := serve.Config{MaxLinks: *maxLinks}
	if model != nil {
		scfg.Estimator = model
		scfg.InputSize = model.Net.In.Size()
	} else {
		scfg.Estimator = &serve.StubEstimator{Latency: *stub}
		scfg.InputSize = stubPixels
	}
	svc, err := serve.New(scfg)
	if err != nil {
		fatal(err)
	}

	stopFeed := make(chan struct{})
	if feed != nil {
		go runCamera(svc, feed, stopFeed)
	}

	// One dispatcher behind both listeners: HTTP/JSON is a codec over the
	// same Handler the wire server calls, with the same error→status map.
	handler := wire.NewServiceHandler(svc)
	var wireServer *wire.Server
	if *wireAddr != "" {
		wireServer = wire.NewServer(handler, wire.ServerConfig{})
		bound, err := wireServer.Listen(*wireAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wire protocol on %s\n", bound)
	}

	server := &http.Server{Addr: *addr, Handler: wire.NewHTTPHandler(handler, scfg.InputSize)}
	go func() {
		fmt.Printf("serving on %s  (GET /estimate?link=..., GET /links, GET /metricsz)\n", *addr)
		if err := server.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("\nshutting down...")
	close(stopFeed)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = server.Shutdown(ctx)
	if wireServer != nil {
		_ = wireServer.Close()
	}
	_ = svc.Close()
	m := svc.Metrics()
	fmt.Printf("served %d estimates over %d links; %d frames inferred, %d superseded (infer mean %v/frame)\n",
		m.EstimatesServed, m.ActiveLinks, m.FramesInferred, m.FramesDropped, m.InferMean.Round(10*time.Microsecond))
}

// demoModel simulates a campaign, trains a small VVD-Current on it and
// returns the held-out take's frame stream.
func demoModel() (*core.VVD, [][]float32, error) {
	cfg := dataset.DefaultConfig()
	cfg.Sets = 3
	cfg.PacketsPerSet = 80
	cfg.PSDULen = 64
	fmt.Println("demo: simulating campaign and training a tiny VVD (about a minute)...")
	campaign, err := dataset.Generate(cfg)
	if err != nil {
		return nil, nil, err
	}
	combo := dataset.Combination{Number: 1, Training: []int{1}, Val: 2, Test: 3}
	model, _, err := core.Train(campaign, combo, dataset.LagCurrent, core.TrainConfig{
		Arch:   core.Arch{Conv1: 4, Conv2: 4, Conv3: 8, Conv4: 8, Dense: 32, Pool: nn.AvgPool},
		Epochs: 10, Batch: 16, Seed: 6, LR: 2.5e-3,
	})
	if err != nil {
		return nil, nil, err
	}
	var feed [][]float32
	for _, pkt := range campaign.TestPackets(combo) {
		if img := pkt.Images[dataset.LagCurrent]; img != nil {
			feed = append(feed, img)
		}
	}
	if len(feed) == 0 {
		return nil, nil, fmt.Errorf("demo campaign produced no frames")
	}
	fmt.Printf("demo: trained (%d parameters), replaying %d frames at %.0f fps\n",
		model.Net.NumParams(), len(feed), camera.FrameRate)
	return model, feed, nil
}

// runCamera feeds the demo frame stream in a loop at the camera rate.
func runCamera(svc *serve.Service, feed [][]float32, stop <-chan struct{}) {
	interval := camera.FrameInterval * float64(time.Second)
	tick := time.NewTicker(time.Duration(interval))
	defer tick.Stop()
	i := 0
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			if _, _, err := svc.Submit(feed[i%len(feed)]); err != nil {
				return
			}
			i++
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vvd-serve:", err)
	os.Exit(1)
}
