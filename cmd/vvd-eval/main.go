// Command vvd-eval regenerates the paper's evaluation: every table and
// figure of §6 plus the design ablations, printed as text tables.
//
// Usage:
//
//	vvd-eval -figures all                 # scaled defaults
//	vvd-eval -figures 12,16 -sets 8 -packets 150 -combos 5
//	vvd-eval -figures 12 -workers 8       # parallel evaluation fan-out
//	vvd-eval -campaign campaign.bin       # stream a stored campaign instead of generating
//	vvd-eval -scenarios all               # cross-scenario occupancy sweep
//	vvd-eval -sweep grid                  # occupancy × SNR grid tables
//	vvd-eval -sweep grid -grid-occ 0,2,8 -grid-snr 7,25
//	vvd-eval -paper                       # full-scale (hours)
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"vvd/internal/dataset"
	"vvd/internal/experiments"
	"vvd/internal/scenario"
	"vvd/internal/store"
)

// figureNames are the names -figures accepts.
var figureNames = []string{"all", "table1", "table2", "5", "11", "12", "13", "14", "15", "aging", "16", "17", "ablations"}

func main() {
	var (
		figures   = flag.String("figures", "all", "comma list of: "+strings.Join(figureNames, ","))
		campaign  = flag.String("campaign", "", "evaluate a stored campaign file (vvd-dataset) instead of generating one; only the sets the selected combinations need are decoded")
		sets      = flag.Int("sets", 0, "override campaign sets")
		packets   = flag.Int("packets", 0, "override packets per set")
		psdu      = flag.Int("psdu", 0, "override PSDU bytes")
		combos    = flag.Int("combos", 0, "override combinations evaluated")
		epochs    = flag.Int("epochs", 0, "override VVD training epochs")
		paper     = flag.Bool("paper", false, "full paper-scale parameters (very slow)")
		seed      = flag.Uint64("seed", 0, "override campaign seed")
		workers   = flag.Int("workers", 0, "parallel technique lanes per evaluated packet (0 = GOMAXPROCS, 1 = sequential)")
		sweep     = flag.String("scenarios", "", "run the cross-scenario sweep instead of the figures: comma list of presets or \"all\"")
		sweepMode = flag.String("sweep", "", "multi-axis sweep mode: \"grid\" evaluates the occupancy × SNR cross product (see -grid-occ/-grid-snr)")
		gridOcc   = flag.String("grid-occ", "0,1,2,4", "grid sweep occupancy axis: comma list of occupant counts (0 = empty room)")
		gridSNR   = flag.String("grid-snr", "7,13,20,25", "grid sweep SNR axis: comma list of clear-channel SNRs in dB")
		sweepOut  = flag.String("sweep-out", "", "also write the sweep table to this file")
		list      = flag.Bool("list-scenarios", false, "list the scenario presets and exit")
	)
	flag.Parse()

	if *list {
		for _, s := range scenario.All() {
			fmt.Printf("%-20s %s\n", s.Name, s.Description)
		}
		return
	}

	p := experiments.DefaultParams()
	if *paper {
		p = experiments.PaperParams()
	}
	// The experiments package never reads the wall clock itself (vvd-lint's
	// determinism invariant); the CLI injects it for progress timings.
	p.Clock = time.Now
	if *sets > 0 {
		p.Campaign.Sets = *sets
	}
	if *packets > 0 {
		p.Campaign.PacketsPerSet = *packets
	}
	if *psdu > 0 {
		p.Campaign.PSDULen = *psdu
	}
	if *combos > 0 {
		p.Combos = *combos
	}
	if *epochs > 0 {
		p.Train.Epochs = *epochs
	}
	if *seed > 0 {
		p.Campaign.Seed = *seed
	}
	if *workers > 0 {
		p.Workers = *workers
	}

	if *sweepMode != "" {
		if *sweepMode != "grid" {
			fatal(fmt.Errorf("unknown -sweep mode %q (supported: grid)", *sweepMode))
		}
		if *campaign != "" {
			fatal(fmt.Errorf("-sweep grid generates one campaign per cell and cannot evaluate a stored file; drop -campaign"))
		}
		if err := runGridSweep(p, *gridOcc, *gridSNR, *sweepOut); err != nil {
			fatal(err)
		}
		return
	}

	if *sweep != "" {
		if *campaign != "" {
			fatal(fmt.Errorf("-scenarios generates one campaign per scenario and cannot evaluate a stored file; drop -campaign"))
		}
		if err := runSweep(p, *sweep, *sweepOut); err != nil {
			fatal(err)
		}
		return
	}

	want, err := parseFigures(*figures)
	if err != nil {
		fatal(err)
	}
	all := want["all"]

	if all || want["table1"] {
		fmt.Println(experiments.Table1())
	}

	var e *experiments.Engine
	needEngine := all || want["table2"] || want["11"] || want["12"] || want["13"] || want["14"] ||
		want["aging"] || want["16"] || want["17"] || want["ablations"]
	if needEngine {
		start := time.Now()
		if *campaign != "" {
			if *sets > 0 || *packets > 0 || *psdu > 0 || *seed > 0 {
				fmt.Fprintln(os.Stderr, "vvd-eval: note: -sets/-packets/-psdu/-seed describe campaign generation and are ignored with -campaign (the file's stored config wins)")
			}
			fmt.Printf("loading campaign %s...\n", *campaign)
			e, err = engineFromFile(*campaign, p)
		} else {
			fmt.Printf("generating campaign (%d sets x %d packets, PSDU %d)...\n",
				p.Campaign.Sets, p.Campaign.PacketsPerSet, p.Campaign.PSDULen)
			e, err = experiments.NewEngine(p)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("campaign ready in %.1fs\n\n", time.Since(start).Seconds())
	}

	if all || want["table2"] {
		fmt.Println(experiments.Table2(e.Campaign, p.Combos))
	}
	if all || want["5"] {
		res, err := experiments.RunFig5(p.Campaign.Seed + 41)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Render())
	}
	if all || want["11"] {
		run("Fig. 11", func() (renderer, error) { return experiments.RunFig11(e) })
	}
	if all || want["12"] || want["13"] || want["14"] {
		run("Figs. 12-14", func() (renderer, error) { return experiments.RunFig12to14(e) })
	}
	if all || want["15"] {
		// Fig. 15 uses a dedicated scripted-trajectory campaign so the
		// burst structure around LoS crossings is guaranteed.
		fp := p
		fp.Campaign.Scripted = true
		fp.Campaign.Sets = 3
		fp.Campaign.Seed = p.Campaign.Seed + 99
		fe, err := experiments.NewEngine(fp)
		if err != nil {
			fatal(err)
		}
		pts, err := experiments.RunFig15(fe, 100)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.RenderFig15(pts))
	}
	if all || want["aging"] || want["16"] || want["17"] {
		ages := agingOffsets(e.P.Campaign.PacketsPerSet)
		run("Figs. 16-17", func() (renderer, error) { return experiments.RunAging(e, ages) })
	}
	if all || want["ablations"] {
		runAblations(e)
	}
}

// parseFigures returns the set of names in a -figures list, failing on a
// name outside figureNames so a typo cannot skip a figure silently.
func parseFigures(list string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, f := range strings.Split(list, ",") {
		name := strings.TrimSpace(strings.ToLower(f))
		if !slices.Contains(figureNames, name) {
			return nil, fmt.Errorf("unknown -figures name %q (known: %s)", name, strings.Join(figureNames, ","))
		}
		want[name] = true
	}
	return want, nil
}

// agingOffsets returns the estimate ages (in packets) of Figs. 16–17 for
// test sets of n packets: the ages that fit the set, plus 100 and 200 once
// sets exceed 220 packets.
func agingOffsets(n int) []int {
	var ages []int
	for _, age := range []int{0, 1, 5, 10, 20, 50} {
		if age < n {
			ages = append(ages, age)
		}
	}
	if n > 220 {
		ages = append(ages, 100, 200)
	}
	return ages
}

// runSweep evaluates the named presets (or all of them) with the sweep
// technique set and prints the per-scenario MSE/availability/PER table,
// optionally duplicating it to a file (the CI build artifact). Every name
// resolves before the first campaign is generated, so a typo fails at once.
func runSweep(p experiments.Params, list, outPath string) error {
	ss := scenario.All()
	if strings.TrimSpace(strings.ToLower(list)) != "all" {
		ss = nil
		for _, name := range strings.Split(list, ",") {
			s, err := scenario.Lookup(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			ss = append(ss, s)
		}
	}
	start := time.Now()
	results, err := experiments.EvaluateScenarios(p, ss, nil)
	if err != nil {
		return err
	}
	table := experiments.RenderScenarioTable(results, nil)
	fmt.Println(table)
	fmt.Printf("(cross-scenario sweep completed in %.1fs)\n", time.Since(start).Seconds())
	if outPath != "" {
		if err := store.WriteFileAtomic(outPath, []byte(table+"\n")); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", outPath)
	}
	return nil
}

// runGridSweep expands the occupancy × SNR cross product through the
// scenario algebra and renders the multi-axis table: one block per
// technique, occupancy rows, SNR columns, MSE/availability cells. The table
// carries no timings, so reruns at any -workers value are byte-identical —
// CI diffs it as a build artifact.
func runGridSweep(p experiments.Params, occList, snrList, outPath string) error {
	var g scenario.Grid
	for _, tok := range strings.Split(occList, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(tok), "%d", &n); err != nil {
			return fmt.Errorf("-grid-occ entry %q: %w", tok, err)
		}
		g.Rows = append(g.Rows, scenario.Occupancy(n))
	}
	for _, tok := range strings.Split(snrList, ",") {
		var db float64
		if _, err := fmt.Sscanf(strings.TrimSpace(tok), "%g", &db); err != nil {
			return fmt.Errorf("-grid-snr entry %q: %w", tok, err)
		}
		g.Cols = append(g.Cols, scenario.SNR(db))
	}
	start := time.Now()
	gr, err := experiments.EvaluateGrid(p, g, nil)
	if err != nil {
		return err
	}
	table := experiments.RenderGridTable(gr, nil)
	fmt.Println(table)
	fmt.Printf("(grid sweep of %d cells completed in %.1fs)\n", len(g.Rows)*len(g.Cols), time.Since(start).Seconds())
	if outPath != "" {
		if err := store.WriteFileAtomic(outPath, []byte(table+"\n")); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", outPath)
	}
	return nil
}

// engineFromFile streams a stored campaign into an engine: the reader
// resolves the evaluated combinations from the header's set count and
// decodes only the sets they reference.
func engineFromFile(path string, p experiments.Params) (*experiments.Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := dataset.OpenCampaign(f)
	if err != nil {
		return nil, err
	}
	return experiments.NewEngineFromReader(r, p)
}

type renderer interface{ Render() string }

func run(name string, f func() (renderer, error)) {
	start := time.Now()
	res, err := f()
	if err != nil {
		fatal(fmt.Errorf("%s: %w", name, err))
	}
	fmt.Println(res.Render())
	fmt.Printf("(%s completed in %.1fs)\n\n", name, time.Since(start).Seconds())
}

func runAblations(e *experiments.Engine) {
	type study struct {
		name string
		f    func() (*experiments.AblationResult, error)
	}
	studies := []study{
		{"pooling", func() (*experiments.AblationResult, error) { return experiments.RunAblationPooling(e) }},
		{"dense", func() (*experiments.AblationResult, error) { return experiments.RunAblationDense(e) }},
		{"normalization", func() (*experiments.AblationResult, error) { return experiments.RunAblationNormalization(e) }},
		{"equalizer taps", func() (*experiments.AblationResult, error) {
			return experiments.RunAblationEqualizerTaps(e, []int{7, 11, 21, 31})
		}},
		{"phase correction", func() (*experiments.AblationResult, error) { return experiments.RunAblationPhaseCorrection(e) }},
		{"CIR taps", func() (*experiments.AblationResult, error) {
			return experiments.RunAblationCIRTaps(e, []int{3, 7, 11, 15})
		}},
		{"despreading", func() (*experiments.AblationResult, error) { return experiments.RunAblationDespreading(e) }},
		{"privacy", func() (*experiments.AblationResult, error) {
			return experiments.RunAblationPrivacy(e, []int{1, 3, 6})
		}},
	}
	for _, s := range studies {
		res, err := s.f()
		if err != nil {
			fatal(fmt.Errorf("ablation %s: %w", s.name, err))
		}
		fmt.Println(res.Render())
	}
	fmt.Println(experiments.RenderScalability(experiments.RunScalability(0.05, 256)))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vvd-eval:", err)
	os.Exit(1)
}
