package shard

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vvd/internal/wire"
)

// Config parameterizes a Router.
type Config struct {
	// Backends are the initial shard addresses (host:port, wire
	// protocol). More can join and leave at runtime.
	Backends []string
	// VNodes is the number of virtual nodes per backend on the hash
	// ring. Default 64 — load imbalance shrinks as sqrt of this.
	VNodes int
	// Conns is the multiplexed connection pool size per backend.
	// Default 2.
	Conns int
	// MaxInflight bounds concurrently-forwarded requests per backend;
	// beyond it the router sheds with StatusOverloaded. Default 128.
	MaxInflight int
	// HealthInterval is the Ping cadence per backend. Default 1s; < 0
	// disables active health checking (transport failures still mark
	// backends down).
	HealthInterval time.Duration
	// HealthFailures is how many consecutive probe failures take a
	// backend out of rotation. Default 3. A single successful probe
	// rejoins it.
	HealthFailures int
	// Client configures each pooled wire connection.
	Client wire.ClientConfig
}

func (c *Config) fill() {
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.Conns <= 0 {
		c.Conns = 2
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 128
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = time.Second
	}
	if c.HealthFailures <= 0 {
		c.HealthFailures = 3
	}
}

// Router fronts N vvd-serve shards behind the wire protocol. It
// implements wire.Handler, so the same wire.Server that exposes one
// backend exposes a whole cluster: clients cannot tell a router from a
// single node, and routers could in principle stack.
//
// Routing is consistent-hash by link id (see package doc). A request
// for a link whose owner is down walks clockwise to the next healthy
// backend — the link degrades to a cold session there rather than
// failing. An overloaded shard is NOT failed over: spilling an
// overloaded shard's traffic onto its neighbours converts one hot shard
// into a cluster-wide cascade, so the shed comes back to the client as
// StatusOverloaded unchanged.
type Router struct {
	cfg Config

	ring atomic.Pointer[ring]

	mu       sync.Mutex
	backends map[string]*backend
	closed   bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewRouter builds a router over the configured backends and starts its
// health loop. Backends are assumed healthy until probed otherwise.
func NewRouter(cfg Config) (*Router, error) {
	cfg.fill()
	r := &Router{
		cfg:      cfg,
		backends: map[string]*backend{},
		stop:     make(chan struct{}),
	}
	for _, addr := range cfg.Backends {
		if addr == "" {
			return nil, fmt.Errorf("shard: empty backend address")
		}
		if _, dup := r.backends[addr]; dup {
			return nil, fmt.Errorf("shard: duplicate backend %s", addr)
		}
		r.backends[addr] = newBackend(addr, cfg.Conns, cfg.MaxInflight, cfg.Client)
	}
	r.rebuild()
	if cfg.HealthInterval > 0 {
		r.wg.Add(1)
		go r.healthLoop()
	}
	return r, nil
}

// rebuild swaps in a fresh ring from the current membership. Callers
// hold r.mu or are the constructor.
func (r *Router) rebuild() {
	backends := make([]*backend, 0, len(r.backends))
	for _, b := range r.backends {
		backends = append(backends, b)
	}
	// buildRing sorts by hash; pre-sorting by addr just makes the input
	// order deterministic for the tie-break path.
	sort.Slice(backends, func(i, j int) bool { return backends[i].addr < backends[j].addr })
	r.ring.Store(buildRing(backends, r.cfg.VNodes))
}

// AddBackend brings a new shard into rotation. Only the ~1/N of links
// that hash to it move; everything else keeps its backend.
func (r *Router) AddBackend(addr string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("shard: router closed")
	}
	if addr == "" {
		return fmt.Errorf("shard: empty backend address")
	}
	if _, dup := r.backends[addr]; dup {
		return fmt.Errorf("shard: backend %s already present", addr)
	}
	r.backends[addr] = newBackend(addr, r.cfg.Conns, r.cfg.MaxInflight, r.cfg.Client)
	r.rebuild()
	return nil
}

// RemoveBackend takes a shard out of rotation and closes its pool. Its
// links remap to their ring successors on their next request.
func (r *Router) RemoveBackend(addr string) error {
	r.mu.Lock()
	b, ok := r.backends[addr]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("shard: backend %s not present", addr)
	}
	delete(r.backends, addr)
	r.rebuild()
	r.mu.Unlock()
	b.close()
	return nil
}

// Close stops the health loop and closes every backend pool.
func (r *Router) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		r.wg.Wait()
		return nil
	}
	r.closed = true
	backends := make([]*backend, 0, len(r.backends))
	//vvdlint:allow maporder -- teardown closes every backend; order is immaterial
	for _, b := range r.backends {
		backends = append(backends, b)
	}
	r.mu.Unlock()
	close(r.stop)
	r.wg.Wait()
	for _, b := range backends {
		b.close()
	}
	return nil
}

// snapshot returns the current backends (unordered).
func (r *Router) snapshot() []*backend {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*backend, 0, len(r.backends))
	//vvdlint:allow maporder -- unordered snapshot; consumers sort (Status) or fan out (Ping/Metrics)
	for _, b := range r.backends {
		out = append(out, b)
	}
	return out
}

// ---- health ----

func (r *Router) healthLoop() {
	defer r.wg.Done()
	ticker := time.NewTicker(r.cfg.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
		}
		backends := r.snapshot()
		var wg sync.WaitGroup
		for _, b := range backends {
			wg.Add(1)
			go func(b *backend) {
				defer wg.Done()
				r.probe(b)
			}(b)
		}
		wg.Wait()
	}
}

// probe pings one backend outside the in-flight bound (health must be
// observable through overload). Any frame that comes back — including a
// StatusOverloaded shed — proves the shard alive; only transport
// failures count against it.
func (r *Router) probe(b *backend) {
	c, err := b.client()
	if err == nil {
		_, err = c.Ping(r.cfg.HealthInterval)
	}
	if err == nil || !isTransport(err) {
		b.fails.Store(0)
		b.healthy.Store(true)
		return
	}
	if int(b.fails.Add(1)) >= r.cfg.HealthFailures {
		b.healthy.Store(false)
	}
}

// isTransport reports whether an error is a connection-level failure
// (dial failure, connection lost, reply never arrived) rather than a
// protocol verdict from a live server.
func isTransport(err error) bool {
	var se *wire.StatusError
	if !errors.As(err, &se) {
		return true // raw net error
	}
	// The backend pool wraps dial/conn-loss failures as
	// StatusUnavailable with its own message; a real server verdict
	// arrives as any status straight off the wire. NotReady from a
	// timed-out round trip also means "no frame came back".
	return se.Code == wire.StatusUnavailable && strings.HasPrefix(se.Msg, "backend ") ||
		se.Code == wire.StatusNotReady && strings.HasPrefix(se.Msg, "no reply")
}

// ---- routing core ----

// route finds the link's owner (or its failover successor) and runs the
// call against it under that shard's in-flight bound. Unhealthy backends
// are skipped; a transport failure marks the backend down immediately
// and tries the next one; a protocol verdict — success, overload shed,
// no-estimate — is final. When every backend tried failed in transport,
// the last transport error is returned; when none was healthy,
// StatusUnavailable. That error is built only then, so a routed request
// formats nothing.
func (r *Router) route(link string, fn func(*wire.Client) error) error {
	rg := r.ring.Load()
	if rg == nil || len(rg.entries) == 0 {
		return wire.Errf(wire.StatusUnavailable, "no backends configured")
	}
	var err error
	tried := false
	rg.walk(link, func(b *backend) bool {
		if !b.healthy.Load() {
			return false
		}
		tried = true
		err = b.do(fn)
		if err != nil && isTransport(err) {
			// The shard vanished under us: out of rotation now, next
			// candidate serves the link. The health loop rejoins it.
			b.healthy.Store(false)
			return false
		}
		return true
	})
	if !tried {
		return wire.Errf(wire.StatusUnavailable, "no healthy backend for link %q", link)
	}
	return err
}

// ---- wire.Handler ----

// Submit implements wire.Handler by forwarding to the link's shard.
func (r *Router) Submit(link string, img []float32, wait time.Duration, reply *wire.EstimateReply) error {
	return r.route(link, func(c *wire.Client) error {
		if wait < 0 {
			return c.SubmitNoWait(link, img, reply)
		}
		return c.Submit(link, img, wait, reply)
	})
}

// Fetch implements wire.Handler.
func (r *Router) Fetch(link string, reply *wire.EstimateReply) error {
	return r.route(link, func(c *wire.Client) error {
		return c.Fetch(link, reply)
	})
}

// Stats implements wire.Handler. A named link routes to its shard; the
// empty link fans out to every backend and merges, sorted by id (links
// are disjoint across shards, except transiently after a remap).
func (r *Router) Stats(link string) ([]wire.LinkStats, error) {
	if link != "" {
		var out []wire.LinkStats
		err := r.route(link, func(c *wire.Client) error {
			var cerr error
			out, cerr = c.Stats(link, out[:0])
			return cerr
		})
		return out, err
	}
	var mu sync.Mutex
	var merged []wire.LinkStats
	if err := r.fanOut(func(c *wire.Client) error {
		stats, err := c.Stats("", nil)
		if err != nil {
			return err
		}
		mu.Lock()
		merged = append(merged, stats...)
		mu.Unlock()
		return nil
	}); err != nil {
		return nil, err
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].ID < merged[j].ID })
	return merged, nil
}

// CloseLink implements wire.Handler by forwarding to the link's shard.
func (r *Router) CloseLink(link string) error {
	return r.route(link, func(c *wire.Client) error {
		return c.CloseLink(link)
	})
}

// Metrics implements wire.Handler: the cluster-wide counter roll-up.
// Counters sum; the mean inference latency weights by inference count;
// latency maxima and age percentiles take the worst shard (a
// conservative tail — the true cluster percentile needs the samples,
// which stay on the shards).
func (r *Router) Metrics() (wire.MetricsReply, error) {
	var mu sync.Mutex
	var out wire.MetricsReply
	var inferWeighted float64
	modes := map[string]bool{}
	var errs []string
	if err := r.fanOut(func(c *wire.Client) error {
		m, err := c.Metrics()
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		out.FramesSubmitted += m.FramesSubmitted
		out.FramesDropped += m.FramesDropped
		out.FramesInferred += m.FramesInferred
		out.Batches += m.Batches
		out.EstimatesServed += m.EstimatesServed
		if m.LastSeq > out.LastSeq {
			out.LastSeq = m.LastSeq // per-shard sequences; keep the max as a progress signal
		}
		inferWeighted += float64(m.InferMean) * float64(m.Batches)
		if m.InferMax > out.InferMax {
			out.InferMax = m.InferMax
		}
		if m.AgeP50 > out.AgeP50 {
			out.AgeP50 = m.AgeP50
		}
		if m.AgeP99 > out.AgeP99 {
			out.AgeP99 = m.AgeP99
		}
		out.QueueLen += m.QueueLen
		out.ActiveLinks += m.ActiveLinks
		modes[m.InferMode] = true
		if m.Err != "" {
			errs = append(errs, m.Err)
		}
		return nil
	}); err != nil {
		return wire.MetricsReply{}, err
	}
	if out.Batches > 0 {
		out.InferMean = time.Duration(inferWeighted / float64(out.Batches))
	}
	modeList := make([]string, 0, len(modes))
	for m := range modes {
		modeList = append(modeList, m)
	}
	sort.Strings(modeList)
	out.InferMode = strings.Join(modeList, ",")
	sort.Strings(errs)
	out.Err = strings.Join(errs, "; ")
	return out, nil
}

// Ping implements wire.Handler: alive while at least one shard is.
func (r *Router) Ping() (wire.PongReply, error) {
	var mu sync.Mutex
	var out wire.PongReply
	var reached int
	err := r.fanOut(func(c *wire.Client) error {
		p, err := c.Ping(0)
		if err != nil {
			return err
		}
		mu.Lock()
		out.QueueLen += p.QueueLen
		out.ActiveLinks += p.ActiveLinks
		out.EstimatesServed += p.EstimatesServed
		reached++
		mu.Unlock()
		return nil
	})
	if reached == 0 {
		if err == nil {
			err = wire.Errf(wire.StatusUnavailable, "no healthy backends")
		}
		return wire.PongReply{}, err
	}
	return out, nil
}

// fanOut runs a call against every healthy backend concurrently and
// returns nil if at least one succeeded (the cluster answer is the
// reachable shards' answer; a partial cluster still serves).
func (r *Router) fanOut(fn func(*wire.Client) error) error {
	backends := r.snapshot()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	var ok int
	for _, b := range backends {
		if !b.healthy.Load() {
			continue
		}
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			err := b.do(fn)
			mu.Lock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
			} else {
				ok++
			}
			mu.Unlock()
		}(b)
	}
	wg.Wait()
	if ok == 0 {
		if firstErr == nil {
			firstErr = wire.Errf(wire.StatusUnavailable, "no healthy backends")
		}
		return firstErr
	}
	return nil
}

// Status is the per-shard operational snapshot (vvd-router's /shardz),
// sorted by address.
type Status struct {
	Addr     string `json:"addr"`
	Healthy  bool   `json:"healthy"`
	Inflight int    `json:"inflight"`
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	Sheds    uint64 `json:"sheds"`
}

// Status reports every backend's state, sorted by address.
func (r *Router) Status() []Status {
	backends := r.snapshot()
	out := make([]Status, 0, len(backends))
	for _, b := range backends {
		out = append(out, Status{
			Addr:     b.addr,
			Healthy:  b.healthy.Load(),
			Inflight: len(b.inflight),
			Requests: b.requests.Load(),
			Errors:   b.errors.Load(),
			Sheds:    b.sheds.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}
