package experiments

import (
	"fmt"
	"strings"

	"vvd/internal/core"
	"vvd/internal/dataset"
	"vvd/internal/estimate"
	"vvd/internal/metrics"
	"vvd/internal/nn"
	"vvd/internal/phy"
)

// AblationRow is one configuration's outcome in an ablation study.
type AblationRow struct {
	Name string
	MSE  float64 // estimation MSE on the test set (0 if not applicable)
	PER  float64
	CER  float64
}

// AblationResult is a named list of ablation rows.
type AblationResult struct {
	Title string
	Rows  []AblationRow
}

// Render renders the study as a text table.
func (a *AblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-36s %12s %12s %12s\n", a.Title, "configuration", "MSE", "PER", "CER")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "%-36s %12.3e %12.3e %12.3e\n", r.Name, r.MSE, r.PER, r.CER)
	}
	return b.String()
}

// evalVVDConfig trains a VVD with the given training config on the first
// combination and measures its test-set MSE/PER/CER as one row.
func (e *Engine) evalVVDConfig(name string, cfg core.TrainConfig) ([]AblationRow, error) {
	cb := e.Combos()[0]
	v, _, err := core.Train(e.Campaign, cb, dataset.LagCurrent, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: ablation %q: %w", name, err)
	}
	return e.measure(cb, &vvdEstimator{name: name, lag: dataset.LagCurrent, v: v})
}

// measure scores estimators on a combination's test set as the lanes of
// one run of the engine loop, and returns one row per estimator, named
// after it.
func (e *Engine) measure(cb dataset.Combination, ests ...Estimator) ([]AblationRow, error) {
	res, err := e.score(cb, e.P.SkipPackets, ests...)
	if err != nil {
		return nil, err
	}
	rows := make([]AblationRow, len(ests))
	for i, est := range ests {
		c := res.Counters[est.Name()]
		if c == nil {
			c = &metrics.Counter{} // no packet counted
		}
		rows[i] = AblationRow{Name: est.Name(), MSE: c.MSE(), PER: c.PER(), CER: c.CER()}
	}
	return rows, nil
}

// perfectEstimator decodes with the whole-packet LS estimate, like Ground
// Truth, but scores its MSE: the receiver ablations report it.
func perfectEstimator(name string) Estimator {
	return staticEstimator{name: name, est: func(pkt *dataset.Packet) ([]complex128, Availability) {
		return pkt.Perfect, Available
	}}
}

// vvdConfig is one row of a training-configuration ablation.
type vvdConfig struct {
	name string
	cfg  core.TrainConfig
}

// runVVDConfigs trains and measures one VVD per configuration.
func (e *Engine) runVVDConfigs(title string, configs []vvdConfig) (*AblationResult, error) {
	res := &AblationResult{Title: title}
	for _, c := range configs {
		rows, err := e.evalVVDConfig(c.name, c.cfg)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, rows...)
	}
	return res, nil
}

// RunAblationPooling compares average against max pooling (paper §4: avg
// pooling was slightly better).
func RunAblationPooling(e *Engine) (*AblationResult, error) {
	avgPool, maxPool := e.P.Train, e.P.Train
	avgPool.Arch.Pool, maxPool.Arch.Pool = nn.AvgPool, nn.MaxPool
	return e.runVVDConfigs("Ablation: pooling kind (paper §4)",
		[]vvdConfig{{"average pooling", avgPool}, {"max pooling", maxPool}})
}

// RunAblationDense compares the Fig. 8 hidden dense layer against removing
// it (paper §4: removing it was slightly worse).
func RunAblationDense(e *Engine) (*AblationResult, error) {
	without := e.P.Train
	without.Arch.SkipDense = true
	return e.runVVDConfigs("Ablation: hidden dense layer (paper §4)",
		[]vvdConfig{{"with dense layer", e.P.Train}, {"without dense layer", without}})
}

// RunAblationNormalization compares the paper's CIR normalization against
// training on raw (tiny-magnitude) targets.
func RunAblationNormalization(e *Engine) (*AblationResult, error) {
	raw := e.P.Train
	raw.NormOverride = 1
	return e.runVVDConfigs("Ablation: CIR normalization of training targets (paper §4)",
		[]vvdConfig{{"normalized targets", e.P.Train}, {"raw targets (no normalization)", raw}})
}

// RunAblationEqualizerTaps sweeps the ZF equalizer length L (Eq. 6-7)
// decoding with the ground-truth estimate.
func RunAblationEqualizerTaps(e *Engine, taps []int) (*AblationResult, error) {
	res := &AblationResult{Title: "Ablation: ZF equalizer tap count L (Eq. 6-7)"}
	cb := e.Combos()[0]
	orig := e.Campaign.Receiver.Cfg.EqTaps
	defer func() { e.Campaign.Receiver.Cfg.EqTaps = orig }()
	for _, l := range taps {
		e.Campaign.Receiver.Cfg.EqTaps = l
		rows, err := e.measure(cb, perfectEstimator(fmt.Sprintf("L = %d", l)))
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, rows...)
	}
	return res, nil
}

// RunAblationPhaseCorrection measures the Eq. 8 mean phase correction by
// decoding VVD estimates with and without it.
func RunAblationPhaseCorrection(e *Engine) (*AblationResult, error) {
	res := &AblationResult{Title: "Ablation: Eq. 8 mean phase correction at decode"}
	cb := e.Combos()[0]
	v, err := e.VVDFor(cb, dataset.LagCurrent)
	if err != nil {
		return nil, err
	}
	rows, err := e.measure(cb, &vvdEstimator{name: "with phase correction", lag: dataset.LagCurrent, v: v})
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, rows...)
	e.Campaign.Receiver.Cfg.SkipPhaseCorrection = true
	defer func() { e.Campaign.Receiver.Cfg.SkipPhaseCorrection = false }()
	rows, err = e.measure(cb, &vvdEstimator{name: "without phase correction", lag: dataset.LagCurrent, v: v})
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, rows...)
	return res, nil
}

// RunAblationCIRTaps sweeps the estimated FIR length N (the paper uses 11;
// the choice depends on the channel's excess delay and sample rate, §2.1).
// Each N is one lane of a single run of the engine loop.
func RunAblationCIRTaps(e *Engine, taps []int) (*AblationResult, error) {
	mod := phy.NewModulator() // read-only, shared by the lanes
	ests := make([]Estimator, len(taps))
	for i, n := range taps {
		ests[i] = &cirTapsEstimator{name: fmt.Sprintf("N = %d", n), taps: n, skip: e.P.SkipPackets, c: e.Campaign, mod: mod}
	}
	rows, err := e.measure(e.Combos()[0], ests...)
	if err != nil {
		return nil, err
	}
	return &AblationResult{Title: "Ablation: channel estimate tap count N (Eq. 4-5)", Rows: rows}, nil
}

// cirTapsEstimator re-estimates each packet's channel by whole-packet LS at
// its own FIR length from a private regeneration of the packet's
// reception, so each counted packet costs one extra reception. Its MSE
// against the N = 11 ground truth is not scored.
type cirTapsEstimator struct {
	name string
	taps int
	skip int // packets the lane loop does not decode
	c    *dataset.Campaign
	mod  *phy.Modulator
}

func (ce *cirTapsEstimator) Name() string    { return ce.name }
func (ce *cirTapsEstimator) MSEExempt() bool { return true }

func (ce *cirTapsEstimator) Estimate(k int, pkt *dataset.Packet) ([]complex128, Availability, error) {
	if k < ce.skip {
		return nil, Skip, nil
	}
	_, txChips, rec, err := ce.c.ReceptionPacket(pkt)
	if err != nil {
		return nil, Skip, err
	}
	txWave := ce.mod.ModulateChips(txChips)
	rxc, _ := ce.c.Receiver.CorrectCFOInPlace(rec.Waveform)
	// A longer FIR hypothesis needs a longer observation window than the
	// true channel produced; pad with zeros (no signal there).
	if need := len(txWave) + ce.taps - 1; len(rxc) < need {
		rxc = append(rxc, make([]complex128, need-len(rxc))...)
	}
	h, err := estimate.LS(txWave, rxc, ce.taps)
	return h, Available, err
}
