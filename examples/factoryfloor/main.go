// Factory floor: the paper's motivating industrial scenario.
//
// Safety-critical sensors transmit *sporadically* (alarms, rare events), so
// time-series estimators starve: their latest channel estimate is many
// coherence times old by the time the sporadic packet arrives. VVD keeps a
// fresh estimate from the surveillance camera without a single pilot.
//
// This example simulates a sensor that stays quiet for several seconds
// between transmissions while a worker walks the floor, and compares three
// receivers on exactly the same sporadic packets:
//
//   - "previous estimate": last estimate from the previous transmission
//     (what a pilot-based system has when the sensor wakes up)
//   - VVD-Current: estimate from the camera frame at transmit time
//   - ground truth: perfect estimation (upper bound)
//
// Run with:
//
//	go run ./examples/factoryfloor
package main

import (
	"fmt"
	"log"

	"vvd/internal/core"
	"vvd/internal/dataset"
	"vvd/internal/estimate"
	"vvd/internal/metrics"
	"vvd/internal/nn"
)

func main() {
	cfg := dataset.DefaultConfig()
	cfg.Sets = 3
	cfg.PacketsPerSet = 200 // 20 s takes
	cfg.PSDULen = 96
	fmt.Println("simulating factory floor (worker walking, sensors sporadic)...")
	campaign, err := dataset.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}

	combo := dataset.Combination{Number: 1, Training: []int{1}, Val: 2, Test: 3}
	train := core.TrainConfig{
		Arch:   core.Arch{Conv1: 4, Conv2: 4, Conv3: 8, Conv4: 8, Dense: 32, Pool: nn.AvgPool},
		Epochs: 16, Batch: 16, Seed: 2, LR: 2e-3,
	}
	fmt.Println("training VVD from the surveillance camera stream...")
	vvd, _, err := core.Train(campaign, combo, dataset.LagCurrent, train)
	if err != nil {
		log.Fatal(err)
	}

	// The sensor transmits every 3 seconds (every 30th packet slot).
	const sporadicInterval = 30
	test := campaign.TestPackets(combo)
	rx := campaign.Receiver

	var stale, fresh, oracle metrics.Counter
	events := 0
	for k := sporadicInterval; k < len(test); k += sporadicInterval {
		pkt := test[k]
		prev := test[k-sporadicInterval] // last time the sensor spoke
		ppdu, txChips, rec, err := campaign.ReceptionPacket(pkt)
		if err != nil {
			log.Fatal(err)
		}
		rxc, _ := rx.CorrectCFO(rec.Waveform)

		decode := func(h []complex128, c *metrics.Counter) {
			res := rx.Decode(rxc, ppdu, txChips, h)
			c.AddPacket(res.PacketOK, res.ChipErrors, res.PSDUChips)
			if h != nil {
				c.AddMSE(metrics.SqError(estimate.AlignPhase(h, pkt.Perfect), pkt.Perfect), len(pkt.Perfect))
			}
		}
		decode(prev.PerfectAligned, &stale) // 3-second-old estimate
		img, err := vvd.Estimate(pkt.Images[dataset.LagCurrent])
		if err != nil {
			log.Fatal(err)
		}
		decode(img, &fresh)
		decode(pkt.Perfect, &oracle)
		events++
	}

	fmt.Printf("\n%d sporadic transmissions, 3 s apart:\n", events)
	fmt.Printf("%-34s %10s %12s %12s\n", "receiver", "PER", "CER", "MSE")
	fmt.Printf("%-34s %10.3f %12.3e %12.3e\n", "3s-old estimate (pilot-based)", stale.PER(), stale.CER(), stale.MSE())
	fmt.Printf("%-34s %10.3f %12.3e %12.3e\n", "VVD-Current (camera, no pilot)", fresh.PER(), fresh.CER(), fresh.MSE())
	fmt.Printf("%-34s %10.3f %12.3e %12.3e\n", "ground truth (upper bound)", oracle.PER(), oracle.CER(), oracle.MSE())

	// Battery accounting: what the pilots would have cost.
	coherencePilotsPerSecond := 10.0 // one pilot per ~100 ms coherence interval
	duration := float64(len(test)) * dataset.PacketInterval
	saved := int(coherencePilotsPerSecond * duration)
	fmt.Printf("\npilot transmissions avoided over %.0f s of quiet time: %d\n", duration, saved)
	fmt.Println("VVD keeps the estimate fresh from the camera: zero transmit energy spent on sounding.")
}
