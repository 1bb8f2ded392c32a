// Command vvd-dataset generates a simulated measurement campaign (the
// repository's equivalent of the paper's published wireless trace + depth
// images) and writes it to disk in the versioned campaign store, or
// inspects an existing campaign file without decoding its packets.
//
// Usage:
//
//	vvd-dataset -out campaign.bin -sets 15 -packets 120 -psdu 127
//	vvd-dataset -scenario crowded-room-4 -out crowd.bin
//	vvd-dataset -random-scenario 42 -out world42.bin
//	vvd-dataset -list-scenarios
//	vvd-dataset -inspect campaign.bin
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"vvd/internal/dataset"
	"vvd/internal/scenario"
	"vvd/internal/store"
)

func main() {
	var (
		out       = flag.String("out", "campaign.bin", "output file")
		inspect   = flag.String("inspect", "", "inspect an existing campaign file (header, config, per-set checksums) and exit")
		sets      = flag.Int("sets", 15, "number of measurement sets (takes)")
		packets   = flag.Int("packets", 120, "packets per set (paper: ~1500)")
		psdu      = flag.Int("psdu", 127, "PSDU length in bytes")
		seed      = flag.Uint64("seed", 1, "master random seed")
		noImages  = flag.Bool("no-images", false, "skip depth image rendering")
		scripted  = flag.Bool("scripted", false, "use the deterministic LoS-crossing trajectory")
		snr       = flag.Float64("snr", 0, "clear-channel SNR in dB (unset keeps the preset's or the default)")
		occupants = flag.Int("occupants", 0, "people in the room: 0 empties it, 1 is the paper's single walker, N > 1 is N collision-avoiding walkers (unset keeps the preset's or the default single walker)")
		preset    = flag.String("scenario", "", "apply a scenario preset (see -list-scenarios); -scripted, -snr and -occupants, when given, apply after it and extend its name (-scenario low-snr -occupants 2 is low-snr+occ2)")
		random    = flag.Uint64("random-scenario", 0, "draw a bounded random scenario from this seed instead of -scenario (the same seed always draws the same world; the provenance name records every axis)")
		list      = flag.Bool("list-scenarios", false, "list the scenario presets and exit")
		workers   = flag.Int("workers", 0, "parallel generation workers (0 = one per core, 1 = sequential; output is identical for any value)")
	)
	flag.Parse()

	if *list {
		listScenarios()
		return
	}
	if *inspect != "" {
		if err := inspectCampaign(*inspect); err != nil {
			fatal(err)
		}
		return
	}

	cfg := dataset.DefaultConfig()
	if *preset != "" && *random != 0 {
		fatal(fmt.Errorf("-scenario and -random-scenario are mutually exclusive"))
	}
	if *preset != "" {
		applied, err := scenario.Resolve(*preset, cfg)
		if err != nil {
			fatal(err)
		}
		cfg = applied
	}
	if *random != 0 {
		s := scenario.Random(scenario.NewPCG(*random), scenario.DefaultBounds())
		fmt.Printf("random scenario (seed %d): %s\n", *random, s.Name)
		cfg = s.Apply(cfg)
	}
	cfg.Sets = *sets
	cfg.PacketsPerSet = *packets
	cfg.PSDULen = *psdu
	cfg.Seed = *seed
	cfg.RenderImages = !*noImages
	cfg.Workers = *workers
	// Only the world flags given on the command line apply, so a zero value
	// (-snr 0, -occupants 0) is a setting, not "keep the default".
	var world []scenario.Combinator
	flag.Visit(func(f *flag.Flag) {
		switch {
		case f.Name == "occupants":
			world = append(world, scenario.Occupancy(*occupants))
		case f.Name == "scripted" && *scripted:
			world = append(world, scenario.ScriptedCrossing())
		case f.Name == "snr":
			world = append(world, scenario.SNR(*snr))
		}
	})
	cfg = scenario.Extend(cfg, world...)

	fmt.Printf("generating campaign: %d sets x %d packets, PSDU %d bytes, images=%v, occupants=%d",
		cfg.Sets, cfg.PacketsPerSet, cfg.PSDULen, cfg.RenderImages, cfg.NumOccupants())
	if cfg.Scenario != "" {
		fmt.Printf(", scenario=%s", cfg.Scenario)
	}
	fmt.Println()
	c, err := dataset.Generate(cfg)
	if err != nil {
		fatal(err)
	}

	// Atomic write: the campaign lands at -out complete or not at all — a
	// crash or full disk mid-save cannot leave a truncated file there.
	if err := store.WriteAtomic(*out, c.Save); err != nil {
		fatal(err)
	}
	info, err := os.Stat(*out)
	if err != nil {
		fatal(err)
	}
	detected, total := 0, 0
	for _, s := range c.Sets {
		for _, p := range s.Packets {
			if p.PreambleDetected {
				detected++
			}
			total++
		}
	}
	fmt.Printf("wrote %s (%.1f MiB): %d packets, %.1f%% preambles detected\n",
		*out, float64(info.Size())/(1<<20), total, 100*float64(detected)/float64(total))
}

// listScenarios prints every preset with its description.
func listScenarios() {
	for _, s := range scenario.All() {
		fmt.Printf("%-20s %s\n", s.Name, s.Description)
	}
}

// inspectCampaign prints a campaign file's header, configuration and
// per-set checksum status. No packet is decoded: set payloads are only
// streamed through the CRC.
func inspectCampaign(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := dataset.OpenCampaign(f)
	if err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		return err
	}
	fmt.Printf("%s: campaign store v%d, %.1f MiB, %d sets\n",
		path, r.Version(), float64(info.Size())/(1<<20), r.NumSets())
	cfgJSON, err := json.MarshalIndent(r.Config(), "  ", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("  config: %s\n", cfgJSON)
	infos, err := r.Inspect()
	if err != nil {
		return err
	}
	bad := 0
	for _, si := range infos {
		status := "crc ok"
		if !si.CRCOK {
			status = "CRC MISMATCH"
			bad++
		}
		fmt.Printf("  set %2d: %6d packets, %10d payload bytes, %s\n",
			si.Index, si.Packets, si.PayloadBytes, status)
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d sets failed checksum verification", bad, len(infos))
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vvd-dataset:", err)
	os.Exit(1)
}
