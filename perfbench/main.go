// Command perfbench is the repository benchmark. One run executes one named
// workload end to end against the packages of this module, checks the
// outputs, and prints every metric BENCHMARK.json names as one JSON object on
// its last line of standard output.
//
// Run it from the repository root through the build wrapper, which keeps
// every build artifact under .bench_build/:
//
//	bash perfbench/run.sh --workload offline-paper --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 repeats the
// measurement with spans recorded around every layer call and prints the
// per-layer metrics instead, plus the tracing overhead. README.md in this
// directory documents the workloads and which layer metric should move
// which end-to-end metric.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"vvd/internal/mathx/gemm"
)

// heldOutSeed is the second seed every later performance claim must also
// hold on; tune against other seeds only.
const heldOutSeed = 9001

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "workload seed; every input is derived from it")
		seconds = flag.Float64("seconds", 30, "measurement budget in seconds")
		trace   = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
		workdir = flag.String("workdir", ".bench_build", "directory for temporary stores and the span file")
	)
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok {
		fail(fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("need --seconds > 0 and --trace 0 or 1"))
	}
	out := bufio.NewWriter(os.Stdout)
	printEnv(out, w.Name, *seed)
	res, err := run(w, options{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Workdir: *workdir, Log: out})
	if err != nil {
		out.Flush()
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		out.Flush()
		fail(err)
	}
	fmt.Fprintf(out, "%s\n", line)
	if err := out.Flush(); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tally counts operations and failed output checks across a run.
type tally struct {
	attempted, failed int
	firstFailure      string
}

func (t *tally) add(ok bool, what string) {
	t.attempted++
	if !ok {
		t.failed++
		if t.firstFailure == "" {
			t.firstFailure = what
		}
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstFailure == "" {
		t.firstFailure = o.firstFailure
	}
}

// buildResult turns measured values into the result line with the units of
// the catalog. A metric missing from values or not finite is an error: the
// benchmark promises every named metric on every run.
func buildResult(specs []metricSpec, values map[string]float64, t tally) (*result, error) {
	res := &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", s.Name, v)
		}
		res.Metrics[s.Name] = metric{Value: v, Unit: s.Unit}
	}
	return res, nil
}

// printEnv records the machine and build every result was measured on.
func printEnv(w io.Writer, workload string, seed uint64) {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	fmt.Fprintf(w, "env: cpu=%q nproc=%d gomaxprocs=%d gemm_accelerated=%t go=%s rev=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), gemm.Accelerated(), runtime.Version(), rev)
	fmt.Fprintf(w, "workload=%s seed=%d held_out_seed=%d\n", workload, seed, heldOutSeed)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
