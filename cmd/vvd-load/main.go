// Command vvd-load drives a vvd-serve backend or a vvd-router cluster
// with M link sessions at F frames per second each, over either the
// binary wire protocol or HTTP/JSON, and reports serving capacity:
// served estimates/s, estimate-age and round-trip percentiles, shed and
// error rates — the numbers EXPERIMENTS.md pins.
//
// Usage:
//
//	vvd-serve -stub 1.6ms -wire 127.0.0.1:9991 &
//	vvd-load -addr 127.0.0.1:9991 -links 32 -fps 30 -duration 10s
//	vvd-load -addr 127.0.0.1:8990 -protocol http -links 32 -fps 30
//
// With -fps 0 every link runs closed-loop (next frame as soon as the
// previous estimate returns) — the capacity-probing mode. Otherwise
// each link is open-loop at the camera rate: a tick that finds the
// previous request still in flight counts as a local drop, so an
// overloaded server degrades visibly instead of stalling the clock.
//
// Every frame is one cropped depth frame (the CNN input), every submit
// waits up to 2 s for its estimate, and wire links spread over two
// connections. -assert-served and -assert-no-errors turn the run into a
// smoke check: the process exits nonzero when too few estimates were
// served or any request failed other than by a shed (CI uses this
// against a 2-backend cluster).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vvd/internal/camera"
	"vvd/internal/metrics"
	"vvd/internal/store"
	"vvd/internal/wire"
)

// The load's fixed shape.
const (
	// pixels is the size of every submitted frame: the CNN input, one
	// cropped depth frame.
	pixels = camera.CropRows * camera.CropCols
	// wait is every submit's estimate wait budget.
	wait = 2 * time.Second
	// wireConns is how many wire connections the links spread over.
	wireConns = 2
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:9990", "server address (wire host:port, or http host:port)")
		protocol  = flag.String("protocol", "wire", "transport: wire | http")
		links     = flag.Int("links", 16, "concurrent link sessions")
		fps       = flag.Float64("fps", 30, "frames per second per link (0 = closed loop)")
		duration  = flag.Duration("duration", 10*time.Second, "measured run length")
		warmup    = flag.Duration("warmup", time.Second, "warm-up before measuring (connections, batch pipeline)")
		mode      = flag.String("mode", "submit", "per-tick op: submit (frame + wait for estimate) | fetch (read freshest)")
		out       = flag.String("out", "", "write the report as JSON to this file")
		minServed = flag.Uint64("assert-served", 0, "exit nonzero unless at least this many estimates were served")
		assertErr = flag.Bool("assert-no-errors", false, "exit nonzero on any hard error (sheds excluded)")
	)
	flag.Parse()

	var cl client
	var err error
	switch *protocol {
	case "wire":
		cl, err = dialWire(*addr)
	case "http":
		cl = newHTTPClient(*addr, *links)
	default:
		err = fmt.Errorf("unknown -protocol %q (wire | http)", *protocol)
	}
	if err != nil {
		fatal(err)
	}
	defer cl.Close()

	if *mode != "submit" && *mode != "fetch" {
		fatal(fmt.Errorf("unknown -mode %q (submit | fetch)", *mode))
	}

	fmt.Printf("%s %s: %d links x %s, %v run after %v warmup (%d-pixel frames, mode %s)\n",
		*protocol, *addr, *links, fpsLabel(*fps), *duration, *warmup, pixels, *mode)

	rep := run(cl, runConfig{
		Links:    *links,
		FPS:      *fps,
		Duration: *duration,
		Warmup:   *warmup,
		Fetch:    *mode == "fetch",
	})
	rep.Protocol = *protocol
	rep.Addr = *addr

	rep.print(os.Stdout)
	if *out != "" {
		if err := rep.writeFile(*out); err != nil {
			fatal(err)
		}
		fmt.Printf("report written to %s\n", *out)
	}
	if *minServed > 0 && rep.Served < *minServed {
		fatal(fmt.Errorf("served %d estimates, asserted at least %d", rep.Served, *minServed))
	}
	if *assertErr && rep.Errors > 0 {
		fatal(fmt.Errorf("%d hard errors (last: %s), asserted none", rep.Errors, rep.LastError))
	}
}

func fpsLabel(fps float64) string {
	if fps <= 0 {
		return "closed-loop"
	}
	return fmt.Sprintf("%g fps", fps)
}

// client abstracts the two transports down to the one op the generator
// needs: one request for one link, returning the estimate age.
type client interface {
	// Submit sends a frame for the link and waits for an estimate.
	Submit(link string, img []float32, wait time.Duration) (age time.Duration, err error)
	// Fetch reads the link's freshest estimate.
	Fetch(link string) (age time.Duration, err error)
	Close() error
}

// ---- load loop ----

type runConfig struct {
	Links    int
	FPS      float64
	Duration time.Duration
	Warmup   time.Duration
	Fetch    bool
}

// linkStats is one link goroutine's tally. The slices and lastErr have a
// single writer (per-link ops are serialized) and are read only after
// the run; the counters are atomic so the warm-up snapshot can read them
// mid-run.
type linkStats struct {
	served    atomic.Uint64
	sheds     atomic.Uint64
	errors    atomic.Uint64
	ticksLost atomic.Uint64 // open-loop ticks skipped because the last request was still in flight
	lastErr   string
	rtts      []time.Duration
	ages      []time.Duration
}

func run(cl client, cfg runConfig) *report {
	stats := make([]linkStats, cfg.Links)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for l := 0; l < cfg.Links; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			st := &stats[l]
			link := fmt.Sprintf("load-%d", l)
			img := make([]float32, pixels)
			for i := range img {
				img[i] = float32(l*31+i%97) * 0.01
			}
			if cfg.Fetch {
				// A fetch-only link still needs one frame in the pipeline
				// to have anything to read.
				if _, err := cl.Submit(link, img, wait); err != nil {
					st.errors.Add(1)
					st.lastErr = err.Error()
				}
			}
			op := func() {
				var age time.Duration
				var err error
				start := time.Now()
				if cfg.Fetch {
					age, err = cl.Fetch(link)
				} else {
					age, err = cl.Submit(link, img, wait)
				}
				rtt := time.Since(start)
				switch {
				case err == nil:
					st.served.Add(1)
					st.rtts = append(st.rtts, rtt)
					st.ages = append(st.ages, age)
				case wire.CodeOf(err) == wire.StatusOverloaded:
					st.sheds.Add(1)
				default:
					st.errors.Add(1)
					st.lastErr = err.Error()
				}
			}

			if cfg.FPS <= 0 {
				// Closed loop: back-to-back requests probe capacity.
				for {
					select {
					case <-stop:
						return
					default:
					}
					op()
				}
			}
			// Open loop at the camera rate. A tick arriving while the
			// previous op is still running is counted lost, not queued:
			// cameras do not buffer the past.
			interval := time.Duration(float64(time.Second) / cfg.FPS)
			tick := time.NewTicker(interval)
			defer tick.Stop()
			busy := make(chan struct{}, 1)
			var opWG sync.WaitGroup
			defer opWG.Wait() // an in-flight op keeps writing to st until it lands
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					select {
					case busy <- struct{}{}:
						opWG.Add(1)
						go func() {
							defer opWG.Done()
							defer func() { <-busy }()
							op()
						}()
					default:
						st.ticksLost.Add(1)
					}
				}
			}
		}(l)
	}

	// Warm-up traffic runs but is thrown away: reset the tallies at the
	// measured window's start. The goroutines only append to their own
	// slot, so zeroing between phases needs a barrier — simplest is to
	// measure deltas instead: snapshot after warmup.
	time.Sleep(cfg.Warmup)
	warm := snapshot(stats)
	start := time.Now()
	time.Sleep(cfg.Duration)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)

	rep := &report{
		Links:      cfg.Links,
		FPS:        cfg.FPS,
		DurationMS: float64(elapsed) / float64(time.Millisecond),
		Pixels:     pixels,
	}
	var rtts, ages []time.Duration
	for i := range stats {
		st := &stats[i]
		rep.Served += st.served.Load() - warm[i].served
		rep.Sheds += st.sheds.Load() - warm[i].sheds
		rep.Errors += st.errors.Load() - warm[i].errors
		rep.TicksLost += st.ticksLost.Load() - warm[i].ticksLost
		if st.lastErr != "" {
			rep.LastError = st.lastErr
		}
		// Percentiles over the measured window only.
		rtts = append(rtts, st.rtts[min(len(st.rtts), int(warm[i].served)):]...)
		ages = append(ages, st.ages[min(len(st.ages), int(warm[i].served)):]...)
	}
	rep.ServedPerSec = float64(rep.Served) / elapsed.Seconds()
	rep.RTTP50MS, rep.RTTP99MS, rep.RTTMaxMS = percentilesMS(rtts)
	rep.AgeP50MS, rep.AgeP99MS, rep.AgeMaxMS = percentilesMS(ages)
	total := rep.Served + rep.Sheds + rep.Errors
	if total > 0 {
		rep.ShedRate = float64(rep.Sheds) / float64(total)
	}
	return rep
}

type tally struct{ served, sheds, errors, ticksLost uint64 }

func snapshot(stats []linkStats) []tally {
	out := make([]tally, len(stats))
	for i := range stats {
		out[i] = tally{stats[i].served.Load(), stats[i].sheds.Load(), stats[i].errors.Load(), stats[i].ticksLost.Load()}
	}
	return out
}

// percentilesMS returns the p50, p99 and maximum of ds in milliseconds,
// interpolated linearly (metrics.Quantile); zeros for an empty sample.
func percentilesMS(ds []time.Duration) (p50, p99, max float64) {
	if len(ds) == 0 {
		return 0, 0, 0
	}
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	return metrics.Quantile(ms, 0.50), metrics.Quantile(ms, 0.99), ms[len(ms)-1]
}

// ---- report ----

type report struct {
	Protocol     string  `json:"protocol"`
	Addr         string  `json:"addr"`
	Links        int     `json:"links"`
	FPS          float64 `json:"fps"`
	Pixels       int     `json:"pixels"`
	DurationMS   float64 `json:"duration_ms"`
	Served       uint64  `json:"served"`
	ServedPerSec float64 `json:"served_per_sec"`
	Sheds        uint64  `json:"sheds"`
	ShedRate     float64 `json:"shed_rate"`
	Errors       uint64  `json:"errors"`
	LastError    string  `json:"last_error,omitempty"`
	TicksLost    uint64  `json:"ticks_lost"`
	RTTP50MS     float64 `json:"rtt_p50_ms"`
	RTTP99MS     float64 `json:"rtt_p99_ms"`
	RTTMaxMS     float64 `json:"rtt_max_ms"`
	AgeP50MS     float64 `json:"age_p50_ms"`
	AgeP99MS     float64 `json:"age_p99_ms"`
	AgeMaxMS     float64 `json:"age_max_ms"`
}

func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "served     %d estimates (%.1f/s)\n", r.Served, r.ServedPerSec)
	fmt.Fprintf(w, "shed       %d (%.1f%% of requests)\n", r.Sheds, 100*r.ShedRate)
	fmt.Fprintf(w, "errors     %d", r.Errors)
	if r.LastError != "" {
		fmt.Fprintf(w, "   (last: %s)", r.LastError)
	}
	fmt.Fprintln(w)
	if r.TicksLost > 0 {
		fmt.Fprintf(w, "ticks lost %d (open-loop ticks with the link still busy)\n", r.TicksLost)
	}
	fmt.Fprintf(w, "rtt        p50 %.2fms  p99 %.2fms  max %.2fms\n", r.RTTP50MS, r.RTTP99MS, r.RTTMaxMS)
	fmt.Fprintf(w, "age        p50 %.2fms  p99 %.2fms  max %.2fms\n", r.AgeP50MS, r.AgeP99MS, r.AgeMaxMS)
}

// writeFile writes the JSON report atomically: the file appears at
// path complete or not at all.
func (r *report) writeFile(path string) error {
	return store.WriteAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(r)
	})
}

// ---- wire transport ----

// wireClient spreads links over a small pool of multiplexed
// connections (link l pins to conn l%N — affinity keeps per-conn
// pipelining deep).
type wireClient struct {
	conns []*wire.Client
}

func dialWire(addr string) (client, error) {
	wc := &wireClient{}
	for i := 0; i < wireConns; i++ {
		c, err := wire.Dial(addr, wire.ClientConfig{})
		if err != nil {
			wc.Close()
			return nil, err
		}
		wc.conns = append(wc.conns, c)
	}
	return wc, nil
}

func (w *wireClient) pick(link string) *wire.Client {
	h := uint64(14695981039346656037)
	for i := 0; i < len(link); i++ {
		h = (h ^ uint64(link[i])) * 1099511628211
	}
	return w.conns[h%uint64(len(w.conns))]
}

func (w *wireClient) Submit(link string, img []float32, wait time.Duration) (time.Duration, error) {
	var reply wire.EstimateReply
	if err := w.pick(link).Submit(link, img, wait, &reply); err != nil {
		return 0, err
	}
	return reply.Age, nil
}

func (w *wireClient) Fetch(link string) (time.Duration, error) {
	var reply wire.EstimateReply
	if err := w.pick(link).Fetch(link, &reply); err != nil {
		return 0, err
	}
	return reply.Age, nil
}

func (w *wireClient) Close() error {
	for _, c := range w.conns {
		if c != nil {
			_ = c.Close()
		}
	}
	return nil
}

// ---- HTTP transport ----

type httpClient struct {
	base string
	hc   *http.Client
}

func newHTTPClient(addr string, links int) client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	// One keep-alive connection per link, like a fleet of sensor
	// gateways would hold.
	tr.MaxIdleConns = links
	tr.MaxIdleConnsPerHost = links
	return &httpClient{base: "http://" + addr, hc: &http.Client{Transport: tr}}
}

type httpEstimateReq struct {
	Link   string    `json:"link"`
	Image  []float32 `json:"image,omitempty"`
	WaitMS int       `json:"wait_ms,omitempty"`
}

type httpEstimateResp struct {
	AgeMS float64 `json:"age_ms"`
}

func (h *httpClient) Submit(link string, img []float32, wait time.Duration) (time.Duration, error) {
	body, err := json.Marshal(httpEstimateReq{Link: link, Image: img, WaitMS: int(wait / time.Millisecond)})
	if err != nil {
		return 0, err
	}
	resp, err := h.hc.Post(h.base+"/estimate", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	return h.decode(resp)
}

func (h *httpClient) Fetch(link string) (time.Duration, error) {
	resp, err := h.hc.Get(h.base + "/estimate?link=" + link)
	if err != nil {
		return 0, err
	}
	return h.decode(resp)
}

// decode reads an estimate's age from a 200 response. Every other
// status is a hard error: no server sheds over HTTP (the HTTP codec
// answers 503 for a closed or failed service and 429 for the session
// cap), so only the wire transport reports sheds.
func (h *httpClient) decode(resp *http.Response) (time.Duration, error) {
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return 0, fmt.Errorf("http %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var er httpEstimateResp
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		return 0, err
	}
	return time.Duration(er.AgeMS * float64(time.Millisecond)), nil
}

func (h *httpClient) Close() error {
	h.hc.CloseIdleConnections()
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vvd-load:", err)
	os.Exit(1)
}
