package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vvd/internal/serve"
	"vvd/internal/wire"
)

// clockBase is the zero of every span timestamp.
var clockBase = time.Now()

// span is one timed call at a layer boundary, recorded from the
// benchmark's own wrappers around the public calls of each layer. Spans of
// one request share ID; Parent names the layer whose span encloses it.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id,omitempty"`
	Parent string `json:"parent,omitempty"`
	Window string `json:"window,omitempty"` // load phase: open or closed
	Link   string `json:"link,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Infer is the inference time of the batch that produced a waited-for
	// estimate, as the reply reports it.
	Infer int64 `json:"infer_ns,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span in memory until the run writes them out. A nil
// *tracer records nothing, which is how untraced passes run.
type tracer struct {
	nextID     atomic.Uint64
	current    sync.Map // link → id of the request the link has in flight
	frontBytes atomic.Int64

	mu      sync.Mutex
	window  string
	spans   []span
	batches []time.Duration // EstimateBatch latencies in the open window
}

func newTracer() *tracer { return &tracer{} }

// now is the span clock; it works on a nil tracer so untraced code can
// time itself with it too.
func (t *tracer) now() int64 { return int64(time.Since(clockBase)) }

func (t *tracer) setWindow(w string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.window = w
	t.mu.Unlock()
}

// clientSpan is an open client-side request span.
type clientSpan struct {
	id    uint64
	start int64
}

// begin opens a request on link and makes its id the one server-side spans
// of that link join.
func (t *tracer) begin(link string) clientSpan {
	if t == nil {
		return clientSpan{}
	}
	id := t.nextID.Add(1)
	t.current.Store(link, id)
	return clientSpan{id: id, start: t.now()}
}

func (t *tracer) end(cs clientSpan, name, link string) {
	if t == nil {
		return
	}
	t.record(span{Name: name, ID: cs.id, Link: link, Start: cs.start, End: t.now()})
}

// phase records one offline phase span (a generation, a model's training,
// an evaluation).
func (t *tracer) phase(name string, start int64) {
	if t == nil {
		return
	}
	t.record(span{Name: name, Start: start, End: t.now()})
}

// record stamps s with the load window and, for a server-side span, the id
// of the request its link has in flight.
func (t *tracer) record(s span) {
	if s.ID == 0 && s.Link != "" {
		if v, ok := t.current.Load(s.Link); ok {
			s.ID = v.(uint64)
		}
	}
	t.mu.Lock()
	s.Window = t.window
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) batch(d time.Duration) {
	t.mu.Lock()
	if t.window == "open" {
		t.batches = append(t.batches, d)
	}
	t.mu.Unlock()
}

// tracedHandler records a span around every Submit and Fetch of the
// wire.Handler it wraps (the router, or a backend's service handler).
type tracedHandler struct {
	wire.Handler
	tr           *tracer
	name, parent string
}

// wrapHandler returns h itself when untraced.
func wrapHandler(h wire.Handler, tr *tracer, name, parent string) wire.Handler {
	if tr == nil {
		return h
	}
	return &tracedHandler{Handler: h, tr: tr, name: name, parent: parent}
}

func (h *tracedHandler) Submit(link string, img []float32, wait time.Duration, reply *wire.EstimateReply) error {
	start := h.tr.now()
	err := h.Handler.Submit(link, img, wait, reply)
	s := span{Name: h.name + ".submit", Parent: h.parent, Link: link, Start: start, End: h.tr.now()}
	switch {
	case wait < 0:
		s.Name = h.name + ".feed"
	case err == nil:
		s.Infer = int64(reply.Inference)
	}
	h.tr.record(s)
	return err
}

func (h *tracedHandler) Fetch(link string, reply *wire.EstimateReply) error {
	start := h.tr.now()
	err := h.Handler.Fetch(link, reply)
	h.tr.record(span{Name: h.name + ".fetch", Parent: h.parent, Link: link, Start: start, End: h.tr.now()})
	return err
}

// timedEstimator times every batched inference of a backend.
type timedEstimator struct {
	est serve.BatchEstimator
	tr  *tracer
}

func (e timedEstimator) EstimateBatch(imgs [][]float32) ([][]complex128, error) {
	t0 := time.Now()
	out, err := e.est.EstimateBatch(imgs)
	e.tr.batch(time.Since(t0))
	return out, err
}

// countingListener counts every byte read and written on its connections.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// request gathers the spans of one request, by layer.
type request struct{ client, router, backend *span }

func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// requests groups the open-window spans by request id.
func (t *tracer) requests() map[uint64]*request {
	reqs := map[uint64]*request{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Window != "open" || s.ID == 0 {
			continue
		}
		r := reqs[s.ID]
		if r == nil {
			r = &request{}
			reqs[s.ID] = r
		}
		switch layerOf(s.Name) {
		case "client":
			r.client = s
		case "router":
			r.router = s
		case "backend":
			r.backend = s
		}
	}
	return reqs
}

// serveLayers derives the serving per-layer metrics from the spans of the
// open-loop window. Self time is a span minus the child span it encloses:
// the front hop is the client round trip minus the router's handler span,
// the router hop is that span minus the backend's, and a backend's wait is
// its handler span minus the inference of the batch that produced the
// reply.
func (t *tracer) serveLayers(layers map[string]float64) {
	var front, route, wait []float64
	for _, r := range t.requests() {
		if r.client == nil || r.router == nil || r.backend == nil {
			continue
		}
		front = append(front, msOf(r.client.dur()-r.router.dur()))
		route = append(route, msOf(r.router.dur()-r.backend.dur()))
		if r.backend.Name == "backend.submit" {
			wait = append(wait, msOf(r.backend.dur()-time.Duration(r.backend.Infer)))
		}
	}
	var batches []float64
	for _, d := range t.batches {
		batches = append(batches, msOf(d))
	}
	frontReqs := 0
	for i := range t.spans {
		if layerOf(t.spans[i].Name) == "router" {
			frontReqs++
		}
	}
	layers["wire.front_self_ms"] = quantileOr0(front, 0.5)
	layers["shard.route_self_ms"] = quantileOr0(route, 0.5)
	layers["serve.wait_ms_p50"] = quantileOr0(wait, 0.5)
	layers["serve.wait_ms_p99"] = quantileOr0(wait, 0.99)
	layers["serve.infer_batch_ms_p50"] = quantileOr0(batches, 0.5)
	layers["wire.bytes_per_req"] = float64(t.frontBytes.Load()) / float64(max(frontReqs, 1))
}

// printSelfTimes prints, per span name, the median duration and the median
// self time (duration minus the enclosed child span) over the open-loop
// window, plus the offline phase spans.
func (t *tracer) printSelfTimes(w io.Writer) {
	total := map[string][]float64{}
	self := map[string][]float64{}
	for _, r := range t.requests() {
		chain := []*span{r.client, r.router, r.backend}
		for i, s := range chain {
			if s == nil {
				continue
			}
			d := s.dur()
			total[s.Name] = append(total[s.Name], msOf(d))
			if i+1 < len(chain) && chain[i+1] != nil {
				d -= chain[i+1].dur()
			} else if s.Infer > 0 {
				d -= time.Duration(s.Infer)
			}
			self[s.Name] = append(self[s.Name], msOf(d))
		}
	}
	for i := range t.spans {
		if s := &t.spans[i]; strings.HasPrefix(s.Name, "offline.") {
			total[s.Name] = append(total[s.Name], msOf(s.dur()))
			self[s.Name] = append(self[s.Name], msOf(s.dur()))
		}
	}
	fmt.Fprintln(w, "per-layer self time (median ms; open-loop window and offline phases):")
	for _, name := range []string{
		"client.submit", "client.fetch", "router.submit", "router.fetch", "backend.submit", "backend.fetch",
		"offline.gen", "offline.train", "offline.eval",
	} {
		if len(total[name]) > 0 {
			fmt.Fprintf(w, "  %-16s n=%-7d total %10.3f  self %10.3f\n", name, len(total[name]),
				median(total[name]), median(self[name]))
		}
	}
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
