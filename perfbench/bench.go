package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
)

// measurement is what one pass over a workload measured.
type measurement struct {
	values map[string]float64 // end-to-end metrics
	layers map[string]float64 // per-layer metrics (complete only when traced)
	tally  tally
}

// run measures the workload untraced; with o.Trace it then measures it
// again with spans recorded and reports the per-layer metrics of the traced
// pass, printing the traced-minus-untraced difference of every end-to-end
// metric as the tracing overhead.
func run(w workload, o options) (*result, error) {
	if err := os.MkdirAll(o.Workdir, 0o755); err != nil {
		return nil, err
	}
	in, err := newInputs(o.Seed)
	if err != nil {
		return nil, err
	}
	m, err := measure(w, o, in, nil)
	if err != nil {
		return nil, err
	}
	printMetrics(o.Log, "end-to-end", endToEnd, m.values)
	if !o.Trace {
		reportFailures(o.Log, m.tally)
		return buildResult(endToEnd, m.values, m.tally)
	}

	tr := newTracer()
	mt, err := measure(w, o, in, tr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(o.Log, "tracing overhead (traced minus untraced):")
	for _, s := range endToEnd {
		a, b := m.values[s.Name], mt.values[s.Name]
		fmt.Fprintf(o.Log, "  %-18s %12.4f -> %12.4f %-5s (%+.1f%%)\n", s.Name, a, b, s.Unit, 100*(b-a)/a)
	}
	mt.layers["trace.overhead_capacity_share"] = 1 - mt.layers["capacity_per_s"]/m.layers["capacity_per_s"]
	mt.layers["trace.overhead_rtt_p50_share"] = mt.values["rtt_p50_ms"]/m.values["rtt_p50_ms"] - 1
	// Capacity, the tail, the generator's lag (which validates it) and the
	// offline figures come from the untraced pass.
	for _, name := range []string{"capacity_per_s", "rtt_p99_ms", "loadgen.lag_p99_ms", "gen_packets_per_s", "train_epoch_s", "eval_s"} {
		mt.layers[name] = m.layers[name]
	}
	tr.printSelfTimes(o.Log)
	path := filepath.Join(o.Workdir, fmt.Sprintf("trace-%s-%d.jsonl", w.Name, o.Seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(o.Log, "spans: %s\n", path)
	printMetrics(o.Log, "per-layer", perLayer(), mt.layers)
	t := m.tally
	t.merge(mt.tally)
	reportFailures(o.Log, t)
	return buildResult(perLayer(), mt.layers, t)
}

// measure runs one pass: the offline pipeline, then set-up and the serving
// phases, each followed, when traced, by its per-layer probes. The cluster
// comes up only after the offline phases: with it running alongside them,
// generation and evaluation read up to 1.6 times slower and swung by a
// third between runs.
func measure(w workload, o options, in *inputs, tr *tracer) (*measurement, error) {
	m := &measurement{values: map[string]float64{}, layers: map[string]float64{}}
	off, err := runOffline(w, o, tr, m)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		if err := offlineProbes(off, m.layers); err != nil {
			return nil, err
		}
	}
	// Set-up and serving start from the same small live heap on every pass:
	// the campaign and models are garbage from here on. Their pages stay
	// with the process: returned to the OS, they had to be faulted back in
	// during the load phases, which then stalled on some runs.
	runtime.GC()

	dir, err := os.MkdirTemp(o.Workdir, "stores-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cl, err := setUp(dir, in, tr, m)
	if err != nil {
		return nil, err
	}
	defer cl.close()
	if err := runServe(w, o, cl, in, tr, m); err != nil {
		return nil, err
	}
	if tr != nil {
		if err := servingProbes(cl, in, m.layers); err != nil {
			return nil, err
		}
		tr.serveLayers(m.layers)
	}
	m.values["max_rss_mb"] = maxRSSMB()
	return m, nil
}

// maxRSSMB is the peak resident set size of this process so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func printMetrics(w io.Writer, title string, specs []metricSpec, values map[string]float64) {
	fmt.Fprintf(w, "%s:\n", title)
	for _, s := range specs {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", s.Name, values[s.Name], s.Unit)
	}
}

func reportFailures(w io.Writer, t tally) {
	fmt.Fprintf(w, "operations: %d attempted, %d failed\n", t.attempted, t.failed)
	if t.failed > 0 {
		fmt.Fprintf(w, "first failure: %s\n", t.firstFailure)
	}
}
