package experiments

import (
	"fmt"
	"math/cmplx"
	"math/rand/v2"
	"strings"

	"vvd/internal/channel"
	"vvd/internal/core"
	"vvd/internal/dataset"
	"vvd/internal/estimate"
	"vvd/internal/metrics"
	"vvd/internal/phy"
	"vvd/internal/report"
	"vvd/internal/room"
)

// Table1 renders the qualitative technique comparison (paper Table 1).
func Table1() string {
	var b strings.Builder
	b.WriteString("Table 1: Comparison of channel estimation techniques\n")
	fmt.Fprintf(&b, "%-12s %-9s %-9s %-8s\n", "Technique", "Reliable", "Scalable", "Dynamic")
	rows := [][4]string{
		{"Blind", "no", "yes", "yes"},
		{"Pilot", "yes", "no", "yes"},
		{"Time-Series", "yes", "-", "no"},
		{"VVD", "yes", "yes", "yes"},
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-9s %-9s %-8s\n", r[0], r[1], r[2], r[3])
	}
	return b.String()
}

// Table2 renders the set combinations actually used by a campaign.
func Table2(c *dataset.Campaign, max int) string {
	var b strings.Builder
	b.WriteString("Table 2: set combinations (training | validation | test | test packets)\n")
	for _, cb := range dataset.CombinationsFor(len(c.Sets), max) {
		fmt.Fprintf(&b, "combination %2d: train %v  val %d  test %d  packets %d\n",
			cb.Number, cb.Training, cb.Val, cb.Test, len(c.Sets[cb.Test-1].Packets))
	}
	return b.String()
}

// Fig5Result holds the hypothesis-testing data of the paper's Fig. 5: the
// per-tap magnitudes and (phase-corrected) constellation points of three
// channel estimates — a control displacement, a different displacement
// (hypothesis 1) and a repeat of the control displacement at a later time
// (hypothesis 2).
type Fig5Result struct {
	Labels        [3]string
	TapsAbs       [3][]float64
	Constellation [3][]complex128
	// DistControlH1 and DistControlH2 are the Euclidean distances between
	// the control estimate and the two test estimates; hypothesis testing
	// passes when DistControlH2 << DistControlH1.
	DistControlH1 float64
	DistControlH2 float64
}

// RunFig5 performs the paper's §3.1 hypothesis test on the simulated
// testbed: same displacement at two different times versus a different
// displacement, with the crystal mean phase shift corrected via Eq. 8
// before comparison.
func RunFig5(seed uint64) (*Fig5Result, error) {
	lab := room.DefaultLab()
	g := channel.NewGeometry(lab, phy.Wavelength)
	model := channel.NewModel(g, phy.SampleRate)
	rx := estimate.NewReceiver(estimate.DefaultConfig())
	mod := phy.NewModulator()

	control := room.DefaultHuman(room.Vec3{X: 4.0, Y: 3.6}) // near-LoS, equidistant
	moved := room.DefaultHuman(room.Vec3{X: 5.6, Y: 2.95})  // in front of the receiver
	repeat := room.DefaultHuman(room.Vec3{X: 4.0, Y: 3.6})  // same displacement, later take

	estimateAt := func(h room.Human, s uint64) ([]complex128, error) {
		_, txWave, _, err := dataset.BuildTx(mod, 1, 64)
		if err != nil {
			return nil, err
		}
		link := channel.NewLink(model, channel.DefaultImpairments(), rand.New(rand.NewPCG(s, s^0xbeef)))
		rec := link.Transmit(txWave, h)
		rxc, _ := rx.CorrectCFO(rec.Waveform)
		return rx.EstimateGroundTruth(rxc, txWave)
	}
	hc, err := estimateAt(control, seed)
	if err != nil {
		return nil, err
	}
	h1, err := estimateAt(moved, seed+1)
	if err != nil {
		return nil, err
	}
	h2, err := estimateAt(repeat, seed+2)
	if err != nil {
		return nil, err
	}
	// Correct the mean phase shift of each estimate relative to control
	// (Eq. 8) — the paper observes the crystal offset is a common rotation.
	h1a := estimate.AlignPhase(h1, hc)
	h2a := estimate.AlignPhase(h2, hc)

	res := &Fig5Result{
		Labels: [3]string{"Control", "Hypothesis 1 (moved)", "Hypothesis 2 (same place)"},
	}
	for i, h := range [][]complex128{hc, h1a, h2a} {
		abs := make([]float64, len(h))
		for j, c := range h {
			abs[j] = cmplx.Abs(c)
		}
		res.TapsAbs[i] = abs
		res.Constellation[i] = h
	}
	res.DistControlH1 = distance(hc, h1a)
	res.DistControlH2 = distance(hc, h2a)
	return res, nil
}

func distance(a, b []complex128) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += real(d)*real(d) + imag(d)*imag(d)
	}
	return s
}

// Render renders Fig. 5 as text.
func (r *Fig5Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 5: complex channel tap coefficients (hypothesis testing)\n")
	fmt.Fprintf(&b, "%-28s", "tap |h|")
	for t := 1; t <= len(r.TapsAbs[0]); t++ {
		fmt.Fprintf(&b, " %8d", t)
	}
	b.WriteByte('\n')
	for i, label := range r.Labels {
		fmt.Fprintf(&b, "%-28s", label)
		for _, v := range r.TapsAbs[i] {
			fmt.Fprintf(&b, " %8.2e", v)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "‖control − moved‖²     = %.3e (hypothesis 1: displacement changes MPCs)\n", r.DistControlH1)
	fmt.Fprintf(&b, "‖control − same place‖² = %.3e (hypothesis 2: same displacement ⇒ similar MPCs)\n", r.DistControlH2)
	return b.String()
}

// Fig11Result compares the variants of VVD and Kalman (paper Fig. 11).
type Fig11Result struct {
	VVD    map[string]metrics.BoxStats
	Kalman map[string]metrics.BoxStats
}

// VVDVariants and KalmanVariants in plot order.
var (
	VVDVariants    = []string{core.TechVVD100msFuture, core.TechVVD33msFuture, core.TechVVDCurrent}
	KalmanVariants = []string{core.TechKalmanAR1, core.TechKalmanAR5, core.TechKalmanAR20}
)

// RunFig11 evaluates the VVD and Kalman variants' PER over the engine's
// combinations.
func RunFig11(e *Engine) (*Fig11Result, error) {
	techs := append(append([]string{}, VVDVariants...), KalmanVariants...)
	results, err := e.Evaluate(techs)
	if err != nil {
		return nil, err
	}
	box, err := BoxOver(results, "per")
	if err != nil {
		return nil, err
	}
	res := &Fig11Result{VVD: map[string]metrics.BoxStats{}, Kalman: map[string]metrics.BoxStats{}}
	for _, name := range VVDVariants {
		if s, ok := box[name]; ok {
			res.VVD[name] = s
		}
	}
	for _, name := range KalmanVariants {
		if s, ok := box[name]; ok {
			res.Kalman[name] = s
		}
	}
	return res, nil
}

// Render renders Fig. 11 as two text tables.
func (r *Fig11Result) Render() string {
	return metrics.Table("Fig. 11a: PER of VVD variants", VVDVariants, r.VVD) +
		metrics.Table("Fig. 11b: PER of Kalman variants", KalmanVariants, r.Kalman)
}

// OverallResult bundles Figs. 12–14: PER, CER and MSE box statistics of
// the plotted techniques over the set combinations.
type OverallResult struct {
	PER map[string]metrics.BoxStats
	CER map[string]metrics.BoxStats
	MSE map[string]metrics.BoxStats
	Raw []*ComboResult
}

// RunFig12to14 evaluates the overall comparison.
func RunFig12to14(e *Engine) (*OverallResult, error) {
	results, err := e.Evaluate(core.Fig12Techniques)
	if err != nil {
		return nil, err
	}
	per, err := BoxOver(results, "per")
	if err != nil {
		return nil, err
	}
	cer, err := BoxOver(results, "cer")
	if err != nil {
		return nil, err
	}
	mse, err := BoxOver(results, "mse")
	if err != nil {
		return nil, err
	}
	return &OverallResult{PER: per, CER: cer, MSE: mse, Raw: results}, nil
}

// Render renders Figs. 12–14 as text tables plus ASCII box plots on a
// shared log axis (the visual form of the paper's figures).
func (r *OverallResult) Render() string {
	mseOrder := []string{
		core.TechPrev500ms, core.TechPrev100ms, core.TechKalmanAR20, core.TechVVDCurrent,
		core.TechCombinedKalman, core.TechCombinedVVD, core.TechPreambleGenie,
	}
	return metrics.Table("Fig. 12: PER of all estimation techniques", core.Fig12Techniques, r.PER) +
		report.BoxPlot("Fig. 12 (box plot)", core.Fig12Techniques, r.PER, 60) +
		"\n" + metrics.Table("Fig. 13: CER of all estimation techniques", core.Fig12Techniques, r.CER) +
		report.BoxPlot("Fig. 13 (box plot)", core.Fig12Techniques, r.CER, 60) +
		"\n" + metrics.Table("Fig. 14: MSE of all estimation techniques", mseOrder, r.MSE) +
		report.BoxPlot("Fig. 14 (box plot)", mseOrder, r.MSE, 60)
}

// Fig15Point is one packet of the decode timeline.
type Fig15Point struct {
	Time    float64
	OK      bool
	Blocked bool // whether the LoS was shadowed at transmit time
}

// RunFig15 decodes a combination's test set with VVD-Current, no packet
// skipped, on a scripted trajectory that repeatedly crosses the line of
// sight, and returns the first window packets (all if window ≤ 0),
// reproducing the bursty error pattern of the paper's Fig. 15.
func RunFig15(e *Engine, window int) ([]Fig15Point, error) {
	combos := e.Combos()
	if len(combos) == 0 {
		return nil, fmt.Errorf("experiments: campaign too small for any combination")
	}
	cb := combos[0]
	est, err := builders[core.TechVVDCurrent](e, cb)
	if err != nil {
		return nil, err
	}
	res, err := e.score(cb, 0, est)
	if err != nil {
		return nil, err
	}
	ok := res.ok[est.Name()]
	test := e.Campaign.TestPackets(cb)
	if window <= 0 || window > len(test) {
		window = len(test)
	}
	losA, losB := e.Campaign.Room.TX, e.Campaign.Room.RX
	out := make([]Fig15Point, window)
	for k, pkt := range test[:window] {
		human := room.DefaultHuman(pkt.Pos)
		d := room.SegmentDistanceToVertical(losA, losB, human.Pos.X, human.Pos.Y, human.Pos.Z, human.Pos.Z+human.Height)
		out[k] = Fig15Point{Time: pkt.Time, OK: ok[k], Blocked: d < human.Radius+0.2}
	}
	return out, nil
}

// RenderFig15 renders the timeline as a success/fail strip.
func RenderFig15(points []Fig15Point) string {
	var b strings.Builder
	b.WriteString("Fig. 15: time versus decoding performance (VVD-Current; '#'=fail, '.'=success, capital letters mark LoS blockage)\n")
	for _, p := range points {
		switch {
		case !p.OK && p.Blocked:
			b.WriteByte('B') // blocked and failed
		case !p.OK:
			b.WriteByte('#')
		case p.Blocked:
			b.WriteByte('o') // blocked but survived
		default:
			b.WriteByte('.')
		}
	}
	b.WriteByte('\n')
	fails := 0
	for _, p := range points {
		if !p.OK {
			fails++
		}
	}
	fmt.Fprintf(&b, "%d/%d packets failed\n", fails, len(points))
	return b.String()
}

// AgingResult holds Figs. 16–17: MSE and PER of aged estimates.
type AgingResult struct {
	AgesSeconds []float64
	GenieMSE    []float64
	VVDMSE      []float64
	GeniePER    []float64
	VVDPER      []float64
}

// RunAging reproduces the aging experiments: a packet is decoded (and its
// estimation error measured) using an estimate that is `age` packets old —
// the preamble-genie estimate of the older packet, or the VVD estimate of
// the older packet's image. Every age adds a genie and a VVD lane to one
// run of the lane loop, which skips the largest age's packets.
// agesPackets[0] should be 0 ("Original").
func RunAging(e *Engine, agesPackets []int) (*AgingResult, error) {
	combos := e.Combos()
	if len(combos) == 0 {
		return nil, fmt.Errorf("experiments: campaign too small for any combination")
	}
	cb := combos[0]
	vvd, err := e.VVDFor(cb, dataset.LagCurrent)
	if err != nil {
		return nil, err
	}
	test := e.Campaign.TestPackets(cb)
	maxAge := 0
	var ests []Estimator
	for _, age := range agesPackets {
		maxAge = max(maxAge, age)
		ests = append(ests,
			&agedEstimator{name: fmt.Sprintf("Preamble Genie, %d packets old", age), age: age, test: test,
				est: func(old *dataset.Packet) ([]complex128, error) { return old.PreambleEst, nil }},
			&agedEstimator{name: fmt.Sprintf("VVD, %d packets old", age), age: age, test: test,
				est: func(old *dataset.Packet) ([]complex128, error) { return vvd.Estimate(old.Images[dataset.LagCurrent]) }})
	}
	if maxAge >= len(test) {
		return nil, fmt.Errorf("experiments: max age %d ≥ test set size %d", maxAge, len(test))
	}
	res, err := e.score(cb, maxAge, ests...)
	if err != nil {
		return nil, err
	}
	out := &AgingResult{}
	for i, age := range agesPackets {
		genie, vvdC := res.Counters[ests[2*i].Name()], res.Counters[ests[2*i+1].Name()]
		out.AgesSeconds = append(out.AgesSeconds, float64(age)*dataset.PacketInterval)
		out.GenieMSE = append(out.GenieMSE, genie.MSE())
		out.VVDMSE = append(out.VVDMSE, vvdC.MSE())
		out.GeniePER = append(out.GeniePER, genie.PER())
		out.VVDPER = append(out.VVDPER, vvdC.PER())
	}
	return out, nil
}

// Render renders Figs. 16–17 as a text table plus log-scale curves.
func (r *AgingResult) Render() string {
	var b strings.Builder
	b.WriteString("Figs. 16–17: aging effect on MSE and PER\n")
	fmt.Fprintf(&b, "%10s %12s %12s %12s %12s\n", "age (s)", "genie MSE", "VVD MSE", "genie PER", "VVD PER")
	labels := make([]string, len(r.AgesSeconds))
	for i, age := range r.AgesSeconds {
		fmt.Fprintf(&b, "%10.1f %12.3e %12.3e %12.3e %12.3e\n",
			age, r.GenieMSE[i], r.VVDMSE[i], r.GeniePER[i], r.VVDPER[i])
		labels[i] = fmt.Sprintf("%.1f", age)
	}
	b.WriteString(report.LinePlot("Fig. 16: MSE vs estimate age (s)", labels, []report.Series{
		{Name: "Preamble Genie", Values: r.GenieMSE},
		{Name: "VVD", Values: r.VVDMSE},
	}, 9))
	b.WriteString(report.LinePlot("Fig. 17: PER vs estimate age (s)", labels, []report.Series{
		{Name: "Preamble Genie", Values: r.GeniePER},
		{Name: "VVD", Values: r.VVDPER},
	}, 9))
	return b.String()
}
