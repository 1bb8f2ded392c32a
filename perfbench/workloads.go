package main

import (
	"io"
	"time"
)

// workload is one named traffic mix. Every workload runs the whole system —
// the offline paper pipeline, set-up, then the serving cluster under load —
// because every run reports every metric of its mode (max_rss_mb spans all
// three parts; a traced run has per-layer metrics of each); the time shares
// decide which parts dominate. README.md records
// why each workload exists.
type workload struct {
	Name string

	// Offline pipeline: training epochs per VVD model, a fixed amount of
	// work, then OfflineShare of --seconds spent in rounds of evaluation,
	// generation and a training probe (at least minReps rounds; with 0,
	// just those, for the output checks and the per-layer probes).
	Epochs       int
	OfflineShare float64

	// Serving: the open-loop mix (Links links, each at Rate requests/s) runs
	// for OpenShare of --seconds, then the closed-loop capacity probe for
	// ClosedShare.
	Mix                    string
	Links                  int
	Rate                   float64
	OpenShare, ClosedShare float64
}

// Request mixes.
const (
	mixSubmit = "submit" // every request submits a frame and waits for its estimate
	mixFetch  = "fetch"  // cameras feed frames; every request reads the freshest estimate
)

var workloads = []workload{
	{
		Name: "offline-paper", Epochs: 3, OfflineShare: 0.72,
		Mix: mixSubmit, Links: 64, Rate: 15, OpenShare: 0.2, ClosedShare: 0.03,
	},
	{
		Name: "serve-submit", Epochs: 2, OfflineShare: 0,
		Mix: mixSubmit, Links: 64, Rate: 15, OpenShare: 0.6, ClosedShare: 0.15,
	},
	{
		Name: "serve-fetch", Epochs: 2, OfflineShare: 0,
		Mix: mixFetch, Links: 512, Rate: 4, OpenShare: 0.6, ClosedShare: 0.15,
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options are the per-run settings from the command line.
type options struct {
	Seed    uint64
	Seconds float64
	Trace   bool
	Workdir string
	Log     io.Writer
}

func (o options) share(s float64) time.Duration {
	return time.Duration(s * o.Seconds * float64(time.Second))
}
