// Streaming: can VVD run in real time? (paper §6.6)
//
// The paper argues VVD is real-time capable if one CNN inference fits
// inside the channel's coherence time (~50 ms indoors): they measured
// ≈0.9 ms on a GPU and ≈9.8 ms on a 2013 CPU. This example wires the
// actual deployment pipeline using internal/serve: a camera goroutine
// submits depth frames at 30 fps into the service's pending-frame slot
// (a newer frame supersedes one still waiting), the service's estimator
// goroutine runs one CNN inference on the pending frame and publishes its
// CIR freshest-wins, and a receiver fetches that freshest estimate
// through its link session as each packet arrives. It
// reports the measured inference latency, the estimate age at each
// decode, and how both compare to the coherence time.
//
// Run with:
//
//	go run ./examples/streaming
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	"vvd/internal/camera"
	"vvd/internal/core"
	"vvd/internal/dataset"
	"vvd/internal/metrics"
	"vvd/internal/nn"
	"vvd/internal/serve"
)

func main() {
	const coherence = 50 * time.Millisecond // paper §6.6, [10]

	// Train a small model offline (as the paper's deployment would).
	cfg := dataset.DefaultConfig()
	cfg.Sets = 3
	cfg.PacketsPerSet = 80
	cfg.PSDULen = 64
	fmt.Println("offline phase: simulating campaign and training VVD...")
	campaign, err := dataset.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	combo := dataset.Combination{Number: 1, Training: []int{1}, Val: 2, Test: 3}
	vvd, _, err := core.Train(campaign, combo, dataset.LagCurrent, core.TrainConfig{
		Arch:   core.Arch{Conv1: 4, Conv2: 4, Conv3: 8, Conv4: 8, Dense: 32, Pool: nn.AvgPool},
		Epochs: 10, Batch: 16, Seed: 6, LR: 2.5e-3,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Online phase: the serving pipeline. Replay the held-out take in real
	// time (scaled 10× faster so the demo finishes quickly; latencies are
	// measured, not scaled).
	var speedup = 10.0
	test := campaign.TestPackets(combo)
	frameTick := time.Duration(camera.FrameInterval / speedup * float64(time.Second))

	svc, err := serve.New(serve.Config{Estimator: vvd, InputSize: vvd.Net.In.Size()})
	if err != nil {
		log.Fatal(err)
	}
	// Camera: submits the frame stream of the take into the service.
	stop := make(chan struct{})
	go func() {
		tick := time.NewTicker(frameTick)
		defer tick.Stop()
		for _, pkt := range test {
			select {
			case <-stop:
				return
			case <-tick.C:
				if _, _, err := svc.Submit(pkt.Images[dataset.LagCurrent]); err != nil {
					return
				}
			}
		}
	}()

	// Receiver: packets arrive every 100 ms (wall: 10 ms); decode each
	// with the freshest published estimate, fetched through the link
	// session so its serving statistics record the estimate's age.
	var counter metrics.Counter
	decoded := 0
	rx := campaign.Receiver
	packetTick := time.NewTicker(time.Duration(dataset.PacketInterval / speedup * float64(time.Second)))
	defer packetTick.Stop()
	for _, pkt := range test {
		<-packetTick.C
		est, err := svc.Fetch("receiver-1")
		if errors.Is(err, serve.ErrNoEstimate) {
			continue // estimator warming up
		}
		if err != nil {
			log.Fatal(err)
		}
		ppdu, txChips, rec, err := campaign.ReceptionPacket(pkt)
		if err != nil {
			log.Fatal(err)
		}
		rxc, _ := rx.CorrectCFO(rec.Waveform)
		res := rx.Decode(rxc, ppdu, txChips, est.CIR)
		counter.AddPacket(res.PacketOK, res.ChipErrors, res.PSDUChips)
		decoded++
	}
	close(stop)
	if err := svc.Close(); err != nil {
		log.Fatal(err)
	}

	m := svc.Metrics()
	st := svc.Links()[0] // the receiver's session, opened by its first Fetch
	fmt.Printf("\nonline phase (replayed %.0f× real time):\n", speedup)
	fmt.Printf("  frames inferred:         %d (%d superseded before inference)\n",
		m.FramesInferred, m.FramesDropped)
	fmt.Printf("  mean CNN inference:      %v per frame (paper: ≈0.9 ms GPU, ≈9.8 ms CPU)\n", m.InferMean.Round(10*time.Microsecond))
	fmt.Printf("  packets decoded blind:   %d  (PER %.3f, CER %.4f)\n", decoded, counter.PER(), counter.CER())
	if st.Served > 0 {
		fmt.Printf("  estimate age at decode:  mean %v, max %v (wall clock, %.0fx compressed)\n",
			st.MeanAge.Round(10*time.Microsecond), st.MaxAge.Round(10*time.Microsecond), speedup)
	}
	if m.InferMean < coherence {
		fmt.Printf("\ninference (%v per frame) fits within the %v coherence time — real-time capable, as the paper projects.\n",
			m.InferMean.Round(10*time.Microsecond), coherence)
	} else {
		fmt.Printf("\ninference (%v per frame) exceeds the %v coherence time — a faster CNN or hardware is needed.\n",
			m.InferMean.Round(10*time.Microsecond), coherence)
	}
}
