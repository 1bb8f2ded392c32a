// Hypotheses: why can a camera know the wireless channel at all?
//
// The paper's §2.2 builds on two hypotheses about indoor multipath:
//
//  1. mobility with displacement changes the phase and amplitude of MPCs;
//  2. if mobile objects end up in the same place at two different times,
//     all MPCs look similar again (after removing the crystals' mean phase
//     shift, Eq. 8).
//
// If both hold, the environment's geometry — which a depth camera sees —
// determines the channel, and learning the mapping is possible. This
// example reproduces the test behind the paper's Figs. 4–5 (distances,
// per-tap constellation and the verdict on both hypotheses) and then goes
// one step further than the paper: it sweeps the repeat position in small
// steps away from the control position, showing how the channel similarity
// decays with displacement distance (the sensitivity that limits VVD at
// LoS-blockage edges, §6.4).
//
// Run with:
//
//	go run ./examples/hypotheses
package main

import (
	"fmt"
	"log"
	"math/rand/v2"

	"vvd/internal/channel"
	"vvd/internal/dataset"
	"vvd/internal/estimate"
	"vvd/internal/experiments"
	"vvd/internal/metrics"
	"vvd/internal/phy"
	"vvd/internal/room"
)

func main() {
	res, err := experiments.RunFig5(42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Render())
	fmt.Println("Constellation (I/Q per tap, phase-corrected):")
	for i, label := range res.Labels {
		fmt.Printf("%-28s", label)
		for _, c := range res.Constellation[i] {
			fmt.Printf(" (%+.2e%+.2ei)", real(c), imag(c))
		}
		fmt.Println()
	}
	if res.DistControlH2 < res.DistControlH1/4 {
		fmt.Println("\nBoth hypotheses supported: same displacement ⇒ similar MPCs; displacement changes MPCs.")
	} else {
		fmt.Println("\nWARNING: hypothesis margin is weak for this seed.")
	}
	fmt.Println()

	// Displacement sensitivity sweep: how fast does similarity decay?
	lab := room.DefaultLab()
	g := channel.NewGeometry(lab, phy.Wavelength)
	model := channel.NewModel(g, phy.SampleRate)
	rx := estimate.NewReceiver(estimate.DefaultConfig())
	mod := phy.NewModulator()

	base := room.Vec3{X: 4.0, Y: 3.6}
	estimateAt := func(pos room.Vec3, seed uint64) []complex128 {
		_, wave, _, err := dataset.BuildTx(mod, 1, 64)
		if err != nil {
			log.Fatal(err)
		}
		link := channel.NewLink(model, channel.DefaultImpairments(), rand.New(rand.NewPCG(seed, seed^77)))
		rec := link.Transmit(wave, room.DefaultHuman(pos))
		rxc, _ := rx.CorrectCFO(rec.Waveform)
		h, err := rx.EstimateGroundTruth(rxc, wave)
		if err != nil {
			log.Fatal(err)
		}
		return h
	}

	control := estimateAt(base, 1)
	fmt.Println("Displacement sensitivity (squared distance to control estimate, Eq. 8-corrected):")
	fmt.Printf("%12s %14s\n", "offset (m)", "‖Δh‖²")
	for _, d := range []float64{0, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0} {
		h := estimateAt(room.Vec3{X: base.X + d, Y: base.Y}, uint64(100+d*1000))
		aligned := estimate.AlignPhase(h, control)
		fmt.Printf("%12.2f %14.3e\n", d, metrics.SqError(aligned, control))
	}
	fmt.Println("\nCentimetre displacements already move the MPC phases (hypothesis 1),")
	fmt.Println("while a zero-displacement repeat stays close (hypothesis 2) — the")
	fmt.Println("geometric determinism VVD's CNN exploits.")
}
