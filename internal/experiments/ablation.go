package experiments

import (
	"fmt"
	"strings"

	"vvd/internal/core"
	"vvd/internal/dataset"
	"vvd/internal/estimate"
	"vvd/internal/metrics"
	"vvd/internal/nn"
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
// combination and measures test-set MSE/PER/CER.
func (e *Engine) evalVVDConfig(name string, cfg core.TrainConfig) (AblationRow, error) {
	cb := e.Combos()[0]
	v, _, err := core.Train(e.Campaign, cb, dataset.LagCurrent, cfg)
	if err != nil {
		return AblationRow{}, fmt.Errorf("experiments: ablation %q: %w", name, err)
	}
	return e.measureEstimator(name, cb, func(pkt *dataset.Packet) ([]complex128, error) {
		return v.Estimate(pkt.Images[dataset.LagCurrent])
	})
}

// measureEstimator decodes the combination's test set with a per-packet
// estimate source.
func (e *Engine) measureEstimator(name string, cb dataset.Combination, est func(*dataset.Packet) ([]complex128, error)) (AblationRow, error) {
	rx := e.Campaign.Receiver
	var c metrics.Counter
	test := e.Campaign.TestPackets(cb)
	for k, pkt := range test {
		if k < e.P.SkipPackets {
			continue
		}
		h, err := est(pkt)
		if err != nil {
			return AblationRow{}, err
		}
		ppdu, txChips, rec, err := e.Campaign.ReceptionPacket(pkt)
		if err != nil {
			return AblationRow{}, err
		}
		rxc, _ := rx.CorrectCFO(rec.Waveform)
		dec := rx.Decode(rxc, ppdu, txChips, h)
		c.AddPacket(dec.PacketOK, dec.ChipErrors, dec.PSDUChips)
		if h != nil {
			c.AddMSE(metrics.SqError(estimate.AlignPhase(h, pkt.Perfect), pkt.Perfect), len(pkt.Perfect))
		}
	}
	return AblationRow{Name: name, MSE: c.MSE(), PER: c.PER(), CER: c.CER()}, nil
}

// RunAblationPooling compares average against max pooling (paper §4: avg
// pooling was slightly better).
func RunAblationPooling(e *Engine) (*AblationResult, error) {
	res := &AblationResult{Title: "Ablation: pooling kind (paper §4)"}
	for _, kind := range []struct {
		name string
		k    nn.PoolKind
	}{{"average pooling", nn.AvgPool}, {"max pooling", nn.MaxPool}} {
		cfg := e.P.Train
		cfg.Arch.Pool = kind.k
		row, err := e.evalVVDConfig(kind.name, cfg)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// RunAblationDense compares the Fig. 8 hidden dense layer against removing
// it (paper §4: removing it was slightly worse).
func RunAblationDense(e *Engine) (*AblationResult, error) {
	res := &AblationResult{Title: "Ablation: hidden dense layer (paper §4)"}
	with := e.P.Train
	row, err := e.evalVVDConfig("with dense layer", with)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, row)
	without := e.P.Train
	without.Arch.SkipDense = true
	row, err = e.evalVVDConfig("without dense layer", without)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, row)
	return res, nil
}

// RunAblationNormalization compares the paper's CIR normalization against
// training on raw (tiny-magnitude) targets.
func RunAblationNormalization(e *Engine) (*AblationResult, error) {
	res := &AblationResult{Title: "Ablation: CIR normalization of training targets (paper §4)"}
	norm := e.P.Train
	row, err := e.evalVVDConfig("normalized targets", norm)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, row)
	raw := e.P.Train
	raw.NormOverride = 1
	row, err = e.evalVVDConfig("raw targets (no normalization)", raw)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, row)
	return res, nil
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
		row, err := e.measureEstimator(fmt.Sprintf("L = %d", l), cb, func(pkt *dataset.Packet) ([]complex128, error) {
			return pkt.Perfect, nil
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
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
	src := func(pkt *dataset.Packet) ([]complex128, error) {
		return v.Estimate(pkt.Images[dataset.LagCurrent])
	}
	row, err := e.measureEstimator("with phase correction", cb, src)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, row)
	e.Campaign.Receiver.Cfg.SkipPhaseCorrection = true
	defer func() { e.Campaign.Receiver.Cfg.SkipPhaseCorrection = false }()
	row, err = e.measureEstimator("without phase correction", cb, src)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, row)
	return res, nil
}

// RunAblationCIRTaps sweeps the estimated FIR length N (the paper uses 11;
// the choice depends on the channel's excess delay and sample rate, §2.1).
func RunAblationCIRTaps(e *Engine, taps []int) (*AblationResult, error) {
	res := &AblationResult{Title: "Ablation: channel estimate tap count N (Eq. 4-5)"}
	cb := e.Combos()[0]
	rx := e.Campaign.Receiver
	orig := rx.Cfg.CIRTaps
	defer func() { rx.Cfg.CIRTaps = orig }()
	for _, n := range taps {
		rx.Cfg.CIRTaps = n
		// Recompute the ground-truth estimate at this tap count per packet.
		row, err := e.measureEstimatorRecomputed(fmt.Sprintf("N = %d", n), cb, n)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// measureEstimatorRecomputed decodes with an LS estimate recomputed at the
// given tap count from the regenerated waveform.
func (e *Engine) measureEstimatorRecomputed(name string, cb dataset.Combination, taps int) (AblationRow, error) {
	rx := e.Campaign.Receiver
	var c metrics.Counter
	test := e.Campaign.TestPackets(cb)
	for k, pkt := range test {
		if k < e.P.SkipPackets {
			continue
		}
		ppdu, txWave, txChips, rec, err := e.Campaign.Reception(cb.Test, pkt.Index)
		if err != nil {
			return AblationRow{}, err
		}
		rxc, _ := rx.CorrectCFO(rec.Waveform)
		// A longer FIR hypothesis needs a longer observation window than
		// the true channel produced; pad with zeros (no signal there).
		if need := len(txWave) + taps - 1; len(rxc) < need {
			rxc = append(rxc, make([]complex128, need-len(rxc))...)
		}
		h, err := estimate.LS(txWave, rxc, taps)
		if err != nil {
			return AblationRow{}, err
		}
		dec := rx.Decode(rxc, ppdu, txChips, h)
		c.AddPacket(dec.PacketOK, dec.ChipErrors, dec.PSDUChips)
	}
	return AblationRow{Name: name, PER: c.PER(), CER: c.CER()}, nil
}
