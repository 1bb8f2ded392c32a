package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"vvd/internal/serve"
	"vvd/internal/wire"
)

// verifyNoLeaks is the serve/wire packages' goroutine-leak check: every
// Close path — backends, router, wire servers, health loop — must
// unwind to the pre-test goroutine count.
func verifyNoLeaks(t *testing.T) {
	t.Helper()
	baseline := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(10 * time.Second)
		for {
			if runtime.NumGoroutine() <= baseline {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d at baseline, %d after cleanup; stacks:\n%s",
			baseline, runtime.NumGoroutine(), buf[:n])
	})
}

const testPixels = 64

func testImage(seed int) []float32 {
	img := make([]float32, testPixels)
	for i := range img {
		img[i] = float32(seed*31+i) * 0.125
	}
	return img
}

// node is one in-process vvd-serve shard.
type node struct {
	svc    *serve.Service
	server *wire.Server
	addr   string
}

func (n *node) close() {
	n.svc.Close()
	n.server.Close()
}

// startNode stands up a shard on addr (":0" for any port), optionally
// with a fixed stub latency.
func startNode(t *testing.T, addr string, latency time.Duration) *node {
	t.Helper()
	return startNodeWith(t, addr, serve.Config{Estimator: &serve.StubEstimator{Latency: latency}})
}

// startNodeWith stands up a shard running a service with the given
// configuration over testPixels-sized frames.
func startNodeWith(t *testing.T, addr string, scfg serve.Config) *node {
	t.Helper()
	scfg.InputSize = testPixels
	svc, err := serve.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	server := wire.NewServer(wire.NewServiceHandler(svc), wire.ServerConfig{})
	bound, err := server.Listen(addr)
	if err != nil {
		svc.Close()
		t.Fatal(err)
	}
	return &node{svc: svc, server: server, addr: bound.String()}
}

// cluster is the full stack under test: N shards, a router, and a wire
// server + client fronting the router — exactly what vvd-router runs.
type cluster struct {
	nodes  []*node
	router *Router
	client *wire.Client
}

func startCluster(t *testing.T, nodes int, cfg Config, latency time.Duration) *cluster {
	t.Helper()
	return startClusterWith(t, nodes, cfg, serve.Config{Estimator: &serve.StubEstimator{Latency: latency}})
}

// startClusterWith is startCluster with every shard's service built from
// scfg.
func startClusterWith(t *testing.T, nodes int, cfg Config, scfg serve.Config) *cluster {
	t.Helper()
	verifyNoLeaks(t)
	c := &cluster{}
	for i := 0; i < nodes; i++ {
		n := startNodeWith(t, "127.0.0.1:0", scfg)
		c.nodes = append(c.nodes, n)
		cfg.Backends = append(cfg.Backends, n.addr)
	}
	router, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.router = router
	front := wire.NewServer(router, wire.ServerConfig{})
	addr, err := front.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := wire.Dial(addr.String(), wire.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	c.client = client
	t.Cleanup(func() {
		client.Close()
		router.Close()
		front.Close()
		for _, n := range c.nodes {
			n.close()
		}
	})
	return c
}

// linksOwnedBy finds n link ids the router's ring assigns to the given
// backend address.
func linksOwnedBy(t *testing.T, c *cluster, addr string, n int) []string {
	t.Helper()
	rg := c.router.ring.Load()
	var out []string
	for i := 0; len(out) < n && i < 100000; i++ {
		link := fmt.Sprintf("probe-%d", i)
		if rg.owner(link).addr == addr {
			out = append(out, link)
		}
	}
	if len(out) < n {
		t.Fatalf("found only %d/%d links owned by %s", len(out), n, addr)
	}
	return out
}

func cirEqual(a, b []complex64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] { //vvdlint:bitexact -- routed estimates are byte-identical to direct by contract
			return false
		}
	}
	return true
}

// TestRoutedEstimatesByteIdenticalToDirect is the acceptance-criterion
// test: frames served through a 2-backend router produce estimates
// byte-identical to direct single-node serving, and concurrent links
// through the router stay correct under -race.
func TestRoutedEstimatesByteIdenticalToDirect(t *testing.T) {
	c := startCluster(t, 2, Config{HealthInterval: -1}, 0)

	// The direct single node everything is compared against.
	direct := startNode(t, "127.0.0.1:0", 0)
	t.Cleanup(direct.close)
	dclient, err := wire.Dial(direct.addr, wire.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dclient.Close() })

	const links = 10

	// Phase 1 — serial byte-identical comparison. One frame in flight
	// per service keeps each node's freshest-wins stream deterministic:
	// the estimate each submit waits for is exactly its own frame's, so
	// routed and direct replies must agree bit for bit.
	var routed, ref wire.EstimateReply
	for l := 0; l < links; l++ {
		img := testImage(l * 1000)
		link := fmt.Sprintf("link-%d", l)
		if err := c.client.Submit(link, img, 0, &routed); err != nil {
			t.Fatalf("routed submit %s: %v", link, err)
		}
		if err := dclient.Submit(fmt.Sprintf("direct-%d", l), img, 0, &ref); err != nil {
			t.Fatalf("direct submit: %v", err)
		}
		if !cirEqual(routed.CIR, ref.CIR) {
			t.Fatalf("link %s: routed CIR %v != direct %v", link, routed.CIR, ref.CIR)
		}
	}

	// Both shards actually served traffic (10 links over 2 shards).
	var shardsServing int
	for _, n := range c.nodes {
		if n.svc.Metrics().FramesSubmitted > 0 {
			shardsServing++
		}
	}
	if shardsServing != 2 {
		t.Errorf("%d of 2 shards saw traffic; routing collapsed onto one", shardsServing)
	}

	// Phase 2 — the same links hammered concurrently. Estimates are a
	// shared freshest-wins stream per shard, so a reply may carry a
	// newer frame than the one submitted; assert the protocol-level
	// invariants instead of frame identity.
	const perLink = 4
	var wg sync.WaitGroup
	errs := make(chan error, links)
	for l := 0; l < links; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			var reply wire.EstimateReply
			for i := 1; i <= perLink; i++ {
				link := fmt.Sprintf("link-%d", l)
				if err := c.client.Submit(link, testImage(l*1000+i), 0, &reply); err != nil {
					errs <- fmt.Errorf("routed submit %s/%d: %w", link, i, err)
					return
				}
				if reply.FrameSeq < reply.SubmittedSeq {
					errs <- fmt.Errorf("link %s: FrameSeq %d < SubmittedSeq %d", link, reply.FrameSeq, reply.SubmittedSeq)
					return
				}
				if len(reply.CIR) != len(routed.CIR) {
					errs <- fmt.Errorf("link %s: %d taps, want %d", link, len(reply.CIR), len(routed.CIR))
					return
				}
			}
		}(l)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Cluster metrics roll up both shards.
	m, err := c.client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.FramesSubmitted != links*(perLink+1) {
		t.Errorf("cluster FramesSubmitted = %d, want %d", m.FramesSubmitted, links*(perLink+1))
	}
	if m.ActiveLinks != links {
		t.Errorf("cluster ActiveLinks = %d, want %d", m.ActiveLinks, links)
	}
}

func TestLinkAffinity(t *testing.T) {
	c := startCluster(t, 2, Config{HealthInterval: -1}, 0)
	var reply wire.EstimateReply
	const frames = 6
	link := "affine-link"
	for i := 0; i < frames; i++ {
		if err := c.client.Submit(link, testImage(i), 0, &reply); err != nil {
			t.Fatal(err)
		}
	}
	// Every frame landed on one shard: session state is not split.
	var with, without int
	for _, n := range c.nodes {
		switch n.svc.Metrics().FramesSubmitted {
		case frames:
			with++
		case 0:
			without++
		default:
			t.Fatalf("shard %s saw %d of %d frames: link split across shards",
				n.addr, n.svc.Metrics().FramesSubmitted, frames)
		}
	}
	if with != 1 || without != 1 {
		t.Fatalf("frames spread %d/%d shards, want all on one", with, without)
	}
}

func TestStatsFanOutMergesSorted(t *testing.T) {
	c := startCluster(t, 2, Config{HealthInterval: -1}, 0)
	var reply wire.EstimateReply
	links := []string{"zeta", "alpha", "mid", "beta"}
	for i, l := range links {
		if err := c.client.Submit(l, testImage(i), 0, &reply); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := c.client.Stats("", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != len(links) {
		t.Fatalf("stats entries = %d, want %d", len(stats), len(links))
	}
	for i := 1; i < len(stats); i++ {
		if stats[i-1].ID >= stats[i].ID {
			t.Fatalf("stats not sorted: %s before %s", stats[i-1].ID, stats[i].ID)
		}
	}
	// A named link routes to its shard.
	one, err := c.client.Stats("alpha", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0].ID != "alpha" || one[0].Served != 1 {
		t.Fatalf("named stats = %+v", one)
	}
}

func TestRouterOverloadSheds(t *testing.T) {
	// One in-flight slot per shard, slow backends: concurrent requests
	// for the same shard shed at the router with StatusOverloaded before
	// ever reaching the backend.
	c := startCluster(t, 2, Config{HealthInterval: -1, MaxInflight: 1}, 300*time.Millisecond)

	link := linksOwnedBy(t, c, c.nodes[0].addr, 1)[0]
	started := make(chan struct{})
	firstErr := make(chan error, 1)
	go func() {
		var reply wire.EstimateReply
		close(started)
		firstErr <- c.client.Submit(link, testImage(0), 5*time.Second, &reply)
	}()
	<-started
	// Wait for the slot to be occupied.
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := c.router.Status()
		busy := false
		for _, s := range st {
			if s.Inflight > 0 {
				busy = true
			}
		}
		if busy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first submit never became in-flight at the router")
		}
		time.Sleep(time.Millisecond)
	}

	var sheds int
	for i := 0; i < 5; i++ {
		var reply wire.EstimateReply
		err := c.client.Fetch(link, &reply)
		if wire.CodeOf(err) == wire.StatusOverloaded {
			sheds++
		}
	}
	if sheds == 0 {
		t.Fatal("no request shed while the shard's in-flight slot was held")
	}
	for _, s := range c.router.Status() {
		if s.Sheds > 0 {
			goto counted
		}
	}
	t.Fatal("router shed counter did not advance")
counted:
	if err := <-firstErr; err != nil {
		t.Fatalf("parked submit failed: %v", err)
	}
}

func TestFailoverAndRejoin(t *testing.T) {
	c := startCluster(t, 2, Config{HealthInterval: 20 * time.Millisecond}, 0)
	victim := c.nodes[1]
	links := linksOwnedBy(t, c, victim.addr, 3)

	var reply wire.EstimateReply
	for _, l := range links {
		if err := c.client.Submit(l, testImage(1), 0, &reply); err != nil {
			t.Fatalf("pre-kill submit %s: %v", l, err)
		}
	}
	survivorSubmitted := c.nodes[0].svc.Metrics().FramesSubmitted

	// Kill the victim shard.
	victim.close()

	// Every link the victim owned keeps being served — first request
	// eats the transport failure, fails over to the survivor, and marks
	// the victim down.
	for _, l := range links {
		if err := c.client.Submit(l, testImage(2), 0, &reply); err != nil {
			t.Fatalf("post-kill submit %s: %v", l, err)
		}
	}
	if got := c.nodes[0].svc.Metrics().FramesSubmitted; got != survivorSubmitted+uint64(len(links)) {
		t.Fatalf("survivor submitted = %d, want %d", got, survivorSubmitted+uint64(len(links)))
	}
	// Status reflects the dead shard.
	deadline := time.Now().Add(5 * time.Second)
	for {
		healthy := true
		for _, s := range c.router.Status() {
			if s.Addr == victim.addr {
				healthy = s.Healthy
			}
		}
		if !healthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never marked unhealthy")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Resurrect the shard on the same address; the health loop rejoins
	// it and its links come home.
	reborn := startNode(t, victim.addr, 0)
	t.Cleanup(reborn.close)
	deadline = time.Now().Add(5 * time.Second)
	for {
		healthy := false
		for _, s := range c.router.Status() {
			if s.Addr == victim.addr {
				healthy = s.Healthy
			}
		}
		if healthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("reborn shard never rejoined")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.client.Submit(links[0], testImage(3), 0, &reply); err != nil {
		t.Fatalf("post-rejoin submit: %v", err)
	}
	if got := reborn.svc.Metrics().FramesSubmitted; got != 1 {
		t.Fatalf("reborn shard submitted = %d, want 1 (link did not come home)", got)
	}
}

func TestHotAddRemove(t *testing.T) {
	c := startCluster(t, 1, Config{HealthInterval: -1}, 0)

	// Grow the cluster by one live shard.
	extra := startNode(t, "127.0.0.1:0", 0)
	t.Cleanup(extra.close)
	if err := c.router.AddBackend(extra.addr); err != nil {
		t.Fatal(err)
	}
	if err := c.router.AddBackend(extra.addr); err == nil {
		t.Fatal("duplicate AddBackend succeeded")
	}

	// Links owned by the new shard land on it.
	links := linksOwnedBy(t, c, extra.addr, 3)
	var reply wire.EstimateReply
	for i, l := range links {
		if err := c.client.Submit(l, testImage(i), 0, &reply); err != nil {
			t.Fatal(err)
		}
	}
	if got := extra.svc.Metrics().FramesSubmitted; got != uint64(len(links)) {
		t.Fatalf("new shard submitted = %d, want %d", got, len(links))
	}

	// Shrink back; the same links flow to the original shard.
	if err := c.router.RemoveBackend(extra.addr); err != nil {
		t.Fatal(err)
	}
	if err := c.router.RemoveBackend(extra.addr); err == nil {
		t.Fatal("double RemoveBackend succeeded")
	}
	before := c.nodes[0].svc.Metrics().FramesSubmitted
	for i, l := range links {
		if err := c.client.Submit(l, testImage(i), 0, &reply); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.nodes[0].svc.Metrics().FramesSubmitted; got != before+uint64(len(links)) {
		t.Fatalf("original shard submitted = %d, want %d", got, before+uint64(len(links)))
	}
}

// TestCloseLinkFreesSessionBehindRouter: a backend at its session cap
// frees a slot when a client closes a link through the router, so a new
// link can open without restarting the backend.
func TestCloseLinkFreesSessionBehindRouter(t *testing.T) {
	c := startClusterWith(t, 1, Config{HealthInterval: -1}, serve.Config{Estimator: &serve.StubEstimator{}, MaxLinks: 1})
	var reply wire.EstimateReply
	if err := c.client.Submit("first", testImage(1), 0, &reply); err != nil {
		t.Fatal(err)
	}
	if err := c.client.Submit("second", testImage(2), 0, &reply); wire.CodeOf(err) != wire.StatusTooManyLinks {
		t.Fatalf("second link at the cap: err = %v, want StatusTooManyLinks", err)
	}
	if err := c.client.CloseLink("first"); err != nil {
		t.Fatalf("CloseLink through the router: %v", err)
	}
	if err := c.client.CloseLink("first"); wire.CodeOf(err) != wire.StatusNoEstimate {
		t.Fatalf("closing a closed link: err = %v, want StatusNoEstimate", err)
	}
	if err := c.client.Submit("second", testImage(2), 0, &reply); err != nil {
		t.Fatalf("second link after closing the first: %v", err)
	}
	if links := c.nodes[0].svc.Links(); len(links) != 1 || links[0].ID != "second" {
		t.Fatalf("backend sessions = %+v, want only \"second\"", links)
	}
}

// TestHTTPThroughRouter fronts the router with the HTTP/JSON codec: the
// backend's verdicts cross the wire hop and reach HTTP through the one
// Status → HTTP map, so the session cap reads 429 and closing an unopened
// link 404, as they do against a backend directly.
func TestHTTPThroughRouter(t *testing.T) {
	c := startClusterWith(t, 1, Config{HealthInterval: -1}, serve.Config{Estimator: &serve.StubEstimator{}, MaxLinks: 1})
	ts := httptest.NewServer(wire.NewHTTPHandler(c.router, 0))
	t.Cleanup(ts.Close)
	do := func(method, target string, body any) int {
		t.Helper()
		var rd io.Reader
		if body != nil {
			buf, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rd = bytes.NewReader(buf)
		}
		req, err := http.NewRequest(method, ts.URL+target, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode
	}
	submit := func(link string, seed int) int {
		return do(http.MethodPost, "/estimate", map[string]any{"link": link, "image": testImage(seed)})
	}
	for _, step := range []struct {
		name string
		got  func() int
		want int
	}{
		{"first link", func() int { return submit("first", 1) }, http.StatusOK},
		{"second link at the cap", func() int { return submit("second", 2) }, http.StatusTooManyRequests},
		{"close the first link", func() int { return do(http.MethodDelete, "/links?id=first", nil) }, http.StatusOK},
		{"close it again", func() int { return do(http.MethodDelete, "/links?id=first", nil) }, http.StatusNotFound},
		{"second link after the close", func() int { return submit("second", 2) }, http.StatusOK},
	} {
		if got := step.got(); got != step.want {
			t.Fatalf("%s: HTTP %d, want %d", step.name, got, step.want)
		}
	}
}

func TestRouterNoBackends(t *testing.T) {
	verifyNoLeaks(t)
	r, err := NewRouter(Config{HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	var reply wire.EstimateReply
	if err := r.Submit("l", testImage(0), 0, &reply); wire.CodeOf(err) != wire.StatusUnavailable {
		t.Fatalf("err = %v, want StatusUnavailable", err)
	}
	if _, err := r.Ping(); wire.CodeOf(err) != wire.StatusUnavailable {
		t.Fatalf("ping err = %v, want StatusUnavailable", err)
	}
}

// TestRouterAllBackendsDown: when every backend fails in transport, the
// call returns the last transport error and the walk marks them all down;
// with no health loop to rejoin them, the next call tries no backend and
// gets StatusUnavailable naming the link.
func TestRouterAllBackendsDown(t *testing.T) {
	verifyNoLeaks(t)
	var addrs []string
	for range 2 {
		n := startNode(t, "127.0.0.1:0", 0)
		addrs = append(addrs, n.addr)
		n.close()
	}
	r, err := NewRouter(Config{Backends: addrs, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	var reply wire.EstimateReply
	err = r.Submit("l", testImage(0), 0, &reply)
	if err == nil || !isTransport(err) || strings.Contains(err.Error(), "no healthy backend") {
		t.Fatalf("first call err = %v, want the last transport error", err)
	}
	err = r.Submit("l", testImage(0), 0, &reply)
	if wire.CodeOf(err) != wire.StatusUnavailable || !strings.Contains(err.Error(), `no healthy backend for link "l"`) {
		t.Fatalf("second call err = %v, want StatusUnavailable with no healthy backend", err)
	}
}

func TestRouterConfigValidation(t *testing.T) {
	verifyNoLeaks(t)
	if _, err := NewRouter(Config{Backends: []string{"a:1", "a:1"}, HealthInterval: -1}); err == nil {
		t.Fatal("duplicate backends accepted")
	}
	if _, err := NewRouter(Config{Backends: []string{""}, HealthInterval: -1}); err == nil {
		t.Fatal("empty backend address accepted")
	}
}
