// Scalability: why pilots don't scale and cameras do (paper Table 1).
//
// A sounding-based system must transmit one pilot per coherence interval
// per transmitter; with hundreds of sensors attached to one station the
// control channel drowns (paper §1, [7]). VVD replaces all of it with one
// camera stream: a single CNN inference per frame serves every link, and
// the transmit-side cost is zero — the property that lets the estimate stay
// fresh even for sensors that stay silent for hours.
//
// This example prints the overhead scaling and then demonstrates the
// operational difference on the simulated testbed: a sensor that has been
// silent for a long stretch wakes up and transmits once — the pilot-based
// receiver is stuck with a stale estimate while VVD's camera-fed estimate
// is current.
//
// Run with:
//
//	go run ./examples/scalability
package main

import (
	"fmt"
	"log"

	"vvd/internal/core"
	"vvd/internal/dataset"
	"vvd/internal/experiments"
	"vvd/internal/metrics"
	"vvd/internal/nn"
)

func main() {
	// Part 1: the control-overhead asymptotics of Table 1.
	fmt.Println(experiments.RenderScalability(experiments.RunScalability(0.05, 256)))

	// Part 2: one silent sensor waking up.
	cfg := dataset.DefaultConfig()
	cfg.Sets = 3
	cfg.PacketsPerSet = 150
	cfg.PSDULen = 64
	fmt.Println("simulating a sensor that transmits once every 5 seconds...")
	campaign, err := dataset.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	combo := dataset.Combination{Number: 1, Training: []int{1}, Val: 2, Test: 3}
	vvd, _, err := core.Train(campaign, combo, dataset.LagCurrent, core.TrainConfig{
		Arch:   core.Arch{Conv1: 4, Conv2: 4, Conv3: 8, Conv4: 8, Dense: 32, Pool: nn.AvgPool},
		Epochs: 16, Batch: 16, Seed: 4, LR: 2.5e-3,
	})
	if err != nil {
		log.Fatal(err)
	}

	const wakeEvery = 50 // packets: 5 s of silence between transmissions
	test := campaign.TestPackets(combo)
	rx := campaign.Receiver
	var stale, fresh metrics.Counter
	for k := wakeEvery; k < len(test); k += wakeEvery {
		pkt := test[k]
		ppdu, txChips, rec, err := campaign.ReceptionPacket(pkt)
		if err != nil {
			log.Fatal(err)
		}
		rxc, _ := rx.CorrectCFO(rec.Waveform)
		// Pilot world: last estimate is from the previous wake-up, 5 s ago.
		old := test[k-wakeEvery].PerfectAligned
		res := rx.Decode(rxc, ppdu, txChips, old)
		stale.AddPacket(res.PacketOK, res.ChipErrors, res.PSDUChips)
		// VVD world: the camera watched the room the whole time.
		h, err := vvd.Estimate(pkt.Images[dataset.LagCurrent])
		if err != nil {
			log.Fatal(err)
		}
		res = rx.Decode(rxc, ppdu, txChips, h)
		fresh.AddPacket(res.PacketOK, res.ChipErrors, res.PSDUChips)
	}
	fmt.Printf("wake-up transmissions after 5 s of silence:\n")
	fmt.Printf("  %-32s PER %.3f  CER %.4f\n", "5s-old pilot estimate", stale.PER(), stale.CER())
	fmt.Printf("  %-32s PER %.3f  CER %.4f\n", "VVD (camera, no pilots at all)", fresh.PER(), fresh.CER())
	fmt.Println("\nThe camera cost is constant in the number of sensors; the pilot cost is linear.")
}
