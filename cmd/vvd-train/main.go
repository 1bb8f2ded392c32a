// Command vvd-train trains a VVD CNN variant on a generated campaign and
// saves the model — to a file (written atomically) and, with -registry,
// as a content-addressed versioned artifact with provenance.
//
// Usage:
//
//	vvd-train -campaign campaign.bin -variant current -combo 1 -out vvd.model
//	vvd-train -campaign campaign.bin -registry ./models -name vvd-current
package main

import (
	"flag"
	"fmt"
	"os"

	"vvd/internal/core"
	"vvd/internal/dataset"
	"vvd/internal/store"
	"vvd/internal/store/registry"
)

func main() {
	var (
		campaignPath = flag.String("campaign", "campaign.bin", "campaign file from vvd-dataset")
		variant      = flag.String("variant", "current", "VVD variant: current | 33ms | 100ms")
		combo        = flag.Int("combo", 1, "Table 2 combination number")
		out          = flag.String("out", "vvd.model", "output model file")
		epochs       = flag.Int("epochs", 24, "training epochs (paper: 200)")
		batch        = flag.Int("batch", 16, "mini-batch size")
		workers      = flag.Int("workers", 0, "gradient workers (0 = GOMAXPROCS)")
		lr           = flag.Float64("lr", 1.2e-3, "initial Nadam learning rate (paper: 1e-4)")
		paperArch    = flag.Bool("paper-arch", false, "use the full Fig. 8 architecture (slow on CPU)")
		seed         = flag.Uint64("seed", 7, "training seed")
		regDir       = flag.String("registry", "", "also register the model in this content-addressed registry (versioned artifact + provenance manifest)")
		name         = flag.String("name", "", "artifact name in the registry (default vvd-<variant>)")
		parent       = flag.String("parent", "", "hash of the model this run fine-tunes (provenance only)")
	)
	flag.Parse()

	var lag dataset.ImageLag
	switch *variant {
	case "current":
		lag = dataset.LagCurrent
	case "33ms":
		lag = dataset.Lag33ms
	case "100ms":
		lag = dataset.Lag100ms
	default:
		fatal(fmt.Errorf("unknown variant %q", *variant))
	}

	f, err := os.Open(*campaignPath)
	if err != nil {
		fatal(err)
	}
	r, err := dataset.OpenCampaign(f)
	if err != nil {
		f.Close()
		fatal(err)
	}
	cfgStored := r.Config()

	// Resolve the combination from the header alone, then stream in only
	// its training and validation sets — the test set (and any other) is
	// skipped without decoding.
	var cb *dataset.Combination
	for _, candidate := range dataset.CombinationsFor(r.NumSets(), 0) {
		if candidate.Number == *combo {
			cbCopy := candidate
			cb = &cbCopy
			break
		}
	}
	if cb == nil {
		f.Close()
		fatal(fmt.Errorf("combination %d not available for a %d-set campaign", *combo, r.NumSets()))
	}
	need := map[int]bool{cb.Val: true}
	for _, id := range cb.Training {
		need[id] = true
	}
	c, err := r.ReadSets(func(id int) bool { return need[id] })
	f.Close()
	if err != nil {
		fatal(err)
	}

	cfg := core.TrainConfig{
		Arch:    core.ScaledArch(),
		Epochs:  *epochs,
		Batch:   *batch,
		Workers: *workers,
		Seed:    *seed,
		LR:      *lr,
		Verbose: func(epoch int, train, val float64) {
			fmt.Printf("epoch %3d  train %.5e  val %.5e\n", epoch, train, val)
		},
	}
	if *paperArch {
		cfg.Arch = core.PaperArch()
	}

	fmt.Printf("training VVD-%s on combination %d (train sets %v, val %d)\n",
		*variant, cb.Number, cb.Training, cb.Val)
	v, hist, err := core.Train(c, *cb, lag, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("best validation MSE %.5e at epoch %d\n", hist.BestVal, hist.BestEpoch)

	// Atomic write: the model lands at -out complete or not at all — a
	// crash or full disk mid-save cannot leave a truncated artifact.
	if err := store.WriteAtomic(*out, v.Save); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d parameters, norm %.3e)\n", *out, v.Net.NumParams(), v.Norm)

	if *regDir != "" {
		if err := os.MkdirAll(*regDir, 0o755); err != nil {
			fatal(err)
		}
		reg, err := registry.OpenDir(*regDir)
		if err != nil {
			fatal(err)
		}
		campaignHash, err := registry.CampaignConfigHash(cfgStored)
		if err != nil {
			fatal(err)
		}
		artifact := *name
		if artifact == "" {
			artifact = "vvd-" + *variant
		}
		m, err := reg.Put(v, registry.Manifest{
			Name:         artifact,
			CampaignHash: campaignHash,
			Scenario:     cfgStored.Scenario,
			Combo:        cb.Number,
			Variant:      *variant,
			Epochs:       *epochs,
			Batch:        *batch,
			LR:           *lr,
			Seed:         *seed,
			Parent:       *parent,
		})
		if cerr := reg.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("registered %s@%s (campaign %s)\n", m.Name, m.Hash[:12], campaignHash[:12])
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vvd-train:", err)
	os.Exit(1)
}
