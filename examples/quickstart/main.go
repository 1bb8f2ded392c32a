// Quickstart: the smallest end-to-end VVD pipeline.
//
// It simulates a short measurement campaign (human walking through the lab,
// packets every 100 ms, depth frames at 30 fps), trains a small VVD CNN
// that maps depth images to complex channel estimates, and then decodes a
// held-out packet with the image-based estimate — no pilot involved.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/cmplx"

	"vvd/internal/core"
	"vvd/internal/dataset"
	"vvd/internal/metrics"
	"vvd/internal/nn"
)

func main() {
	// 1. Simulate a small campaign: 3 takes of 120 packets each.
	cfg := dataset.DefaultConfig()
	cfg.Sets = 3
	cfg.PacketsPerSet = 120
	cfg.PSDULen = 64
	fmt.Println("simulating measurement campaign (3 takes x 120 packets)...")
	campaign, err := dataset.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Train VVD-Current on take 1, validating on take 2. This is a
	// deliberately tiny training run (the paper trains on 13 takes for 200
	// epochs); expect a rough estimator — EXPERIMENTS.md shows how the
	// estimate tightens with scale.
	combo := dataset.Combination{Number: 1, Training: []int{1}, Val: 2, Test: 3}
	train := core.TrainConfig{
		Arch:   core.Arch{Conv1: 4, Conv2: 4, Conv3: 8, Conv4: 8, Dense: 32, Pool: nn.AvgPool},
		Epochs: 18, Batch: 16, Seed: 1, LR: 2.5e-3,
	}
	fmt.Println("training VVD-Current (a minute or two)...")
	vvd, hist, err := core.Train(campaign, combo, dataset.LagCurrent, train)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("best validation MSE %.3e (epoch %d)\n", hist.BestVal, hist.BestEpoch)

	// 3. Decode every held-out packet blind — the channel estimate comes
	// from the depth image alone, no pilot ever transmitted.
	rx := campaign.Receiver
	test := campaign.TestPackets(combo)
	var vvdCount, gtCount, stdCount metrics.Counter
	demo := -1
	var demoEst []complex128
	for _, pkt := range test {
		ppdu, txChips, rec, err := campaign.ReceptionPacket(pkt)
		if err != nil {
			log.Fatal(err)
		}
		rxc, _ := rx.CorrectCFO(rec.Waveform)
		est, err := vvd.Estimate(pkt.Images[dataset.LagCurrent])
		if err != nil {
			log.Fatal(err)
		}
		res := rx.Decode(rxc, ppdu, txChips, est)
		vvdCount.AddPacket(res.PacketOK, res.ChipErrors, res.PSDUChips)
		if res.PacketOK && demo == -1 {
			demo, demoEst = pkt.Index, est
		}
		gt := rx.Decode(rxc, ppdu, txChips, pkt.Perfect)
		gtCount.AddPacket(gt.PacketOK, gt.ChipErrors, gt.PSDUChips)
		std := rx.Decode(rxc, ppdu, txChips, nil)
		stdCount.AddPacket(std.PacketOK, std.ChipErrors, std.PSDUChips)
	}
	fmt.Printf("\nheld-out take, %d packets:\n", len(test))
	fmt.Printf("  %-34s PER %.3f  CER %.4f\n", "VVD (image only, blind)", vvdCount.PER(), vvdCount.CER())
	fmt.Printf("  %-34s PER %.3f  CER %.4f\n", "Standard Decoding (no estimate)", stdCount.PER(), stdCount.CER())
	fmt.Printf("  %-34s PER %.3f  CER %.4f\n", "Ground Truth (oracle)", gtCount.PER(), gtCount.CER())

	// 4. Show one blind-decoded packet's estimate against the ground truth.
	if demo >= 0 {
		pkt := test[demo]
		fmt.Printf("\npacket %d decoded blind — image-based estimate vs measured (per-tap |h|):\n", demo)
		for i := range demoEst {
			fmt.Printf("  tap %2d: VVD %.3e   ground truth %.3e\n",
				i+1, cmplx.Abs(demoEst[i]), cmplx.Abs(pkt.PerfectAligned[i]))
		}
		fmt.Printf("estimation MSE: %.3e\n", metrics.SqError(demoEst, pkt.PerfectAligned)/float64(len(demoEst)))
	}
}
