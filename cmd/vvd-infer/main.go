// Command vvd-infer loads a trained VVD model and a campaign, runs
// image→CIR inference over a measurement set and reports estimation
// error statistics and per-packet decode outcomes.
//
// Usage:
//
//	vvd-infer -model vvd.model -campaign campaign.bin -set 3
//	vvd-infer -registry ./models -model vvd-current@latest -campaign campaign.bin
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"vvd/internal/core"
	"vvd/internal/dataset"
	"vvd/internal/estimate"
	"vvd/internal/metrics"
	"vvd/internal/store/registry"
)

func main() {
	var (
		modelPath    = flag.String("model", "vvd.model", "model file from vvd-train, or a registry ref (name@latest, name@hash, @hashprefix) with -registry")
		campaignPath = flag.String("campaign", "campaign.bin", "campaign file from vvd-dataset")
		setID        = flag.Int("set", 1, "measurement set to run inference on")
		decode       = flag.Bool("decode", true, "also decode every packet with the estimate")
		regDir       = flag.String("registry", "", "content-addressed model registry directory (makes -model accept name@version refs)")
	)
	flag.Parse()

	model, err := loadModel(*regDir, *modelPath)
	if err != nil {
		fatal(err)
	}
	campaign, set, err := readSet(*campaignPath, *setID)
	if err != nil {
		fatal(err)
	}

	var counter metrics.Counter
	var inferTime time.Duration
	rx := campaign.Receiver
	for i := range set.Packets {
		pkt := &set.Packets[i]
		img := pkt.Images[model.Lag]
		if img == nil {
			fatal(fmt.Errorf("campaign has no images for lag %d (generate without -no-images)", model.Lag))
		}
		t0 := time.Now()
		h, err := model.Estimate(img)
		inferTime += time.Since(t0)
		if err != nil {
			fatal(err)
		}
		counter.AddMSE(metrics.SqError(estimate.AlignPhase(h, pkt.Perfect), pkt.Perfect), len(pkt.Perfect))
		if *decode {
			ppdu, txChips, rec, err := campaign.ReceptionPacket(pkt)
			if err != nil {
				fatal(err)
			}
			rxc, _ := rx.CorrectCFO(rec.Waveform)
			res := rx.Decode(rxc, ppdu, txChips, h)
			counter.AddPacket(res.PacketOK, res.ChipErrors, res.PSDUChips)
		}
	}
	n := len(set.Packets)
	fmt.Printf("set %d: %d packets (inference mode %s)\n", *setID, n, model.InferenceMode())
	fmt.Printf("estimation MSE vs perfect estimate: %.3e\n", counter.MSE())
	fmt.Printf("mean inference time: %.2f ms (paper: ≈0.9 ms GPU / ≈9.8 ms CPU)\n",
		float64(inferTime.Microseconds())/float64(n)/1000)
	if *decode {
		fmt.Printf("blind decode: PER %.3f, CER %.4f\n", counter.PER(), counter.CER())
	}
}

// readSet decodes measurement set id of the campaign at path. Only that
// set is decoded (the others are skipped by their payload length), so peak
// memory is one set regardless of campaign size; receptions regenerate
// against the returned campaign, the environment rebuilt from the stored
// config.
func readSet(path string, id int) (*dataset.Campaign, *dataset.Set, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	cr, err := dataset.OpenCampaign(f)
	if err != nil {
		return nil, nil, err
	}
	if id < 1 || id > cr.NumSets() {
		return nil, nil, fmt.Errorf("-set %d out of range (the campaign has sets 1-%d)", id, cr.NumSets())
	}
	campaign, err := cr.ReadSets(func(s int) bool { return s == id })
	if err != nil {
		return nil, nil, err
	}
	return campaign, &campaign.Sets[id-1], nil
}

// loadModel loads from a registry ref (verified against its content
// hash, provenance printed) when -registry is set or the ref contains
// '@', and from a loose file path otherwise.
func loadModel(regDir, ref string) (*core.VVD, error) {
	if regDir == "" && !registry.IsRef(ref) {
		mf, err := os.Open(ref)
		if err != nil {
			return nil, err
		}
		model, err := core.LoadModel(mf)
		mf.Close()
		return model, err
	}
	if regDir == "" {
		return nil, fmt.Errorf("-model %s is a registry ref: pass -registry <dir>", ref)
	}
	reg, err := registry.OpenDir(regDir)
	if err != nil {
		return nil, err
	}
	model, m, err := reg.Load(ref)
	reg.Close() // read-only: nothing to flush
	if err != nil {
		return nil, err
	}
	fmt.Printf("loaded %s@%s", m.Name, shortHash(m.Hash))
	if m.Scenario != "" {
		fmt.Printf("  scenario=%s", m.Scenario)
	}
	if m.CampaignHash != "" {
		fmt.Printf("  campaign=%s", shortHash(m.CampaignHash))
	}
	fmt.Println()
	return model, nil
}

func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vvd-infer:", err)
	os.Exit(1)
}
