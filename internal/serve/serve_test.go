package serve

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vvd/internal/core"
	"vvd/internal/dataset"
	"vvd/internal/nn"
)

// stubEstimator encodes each frame's first pixel into a 1-tap CIR, so
// tests can tell which frame an estimate came from. An optional gate makes
// inference block deterministically; batches records every call's size.
type stubEstimator struct {
	mu      sync.Mutex
	batches []int
	gate    chan struct{} // when non-nil, each call receives once before returning
	started chan struct{} // when non-nil, signaled as each call begins
	err     error
}

func (e *stubEstimator) EstimateBatch(imgs [][]float32) ([][]complex128, error) {
	if e.started != nil {
		e.started <- struct{}{}
	}
	if e.gate != nil {
		<-e.gate
	}
	if e.err != nil {
		return nil, e.err
	}
	e.mu.Lock()
	e.batches = append(e.batches, len(imgs))
	e.mu.Unlock()
	out := make([][]complex128, len(imgs))
	for i, img := range imgs {
		out[i] = []complex128{complex(float64(img[0]), 0)}
	}
	return out, nil
}

func (e *stubEstimator) batchSizes() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]int(nil), e.batches...)
}

// frame builds a 1-pixel image carrying its sequence number.
func frame(n int) []float32 { return []float32{float32(n)} }

// fakeClock is a concurrency-safe manual clock.
type fakeClock struct{ ns atomic.Int64 }

func (c *fakeClock) now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *fakeClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

func TestFreshestWins(t *testing.T) {
	est := &stubEstimator{}
	s, err := New(Config{Estimator: est})
	if err != nil {
		t.Fatal(err)
	}
	var lastSeq uint64
	for i := 1; i <= 20; i++ {
		seq, _, err := s.Submit(frame(i))
		if err != nil {
			t.Fatal(err)
		}
		lastSeq = seq
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	e, ok := s.Latest()
	if !ok {
		t.Fatal("no estimate after close")
	}
	if e.FrameSeq != lastSeq {
		t.Fatalf("latest frame seq %d, want %d", e.FrameSeq, lastSeq)
	}
	if real(e.CIR[0]) != 20 {
		t.Fatalf("latest CIR encodes frame %v, want 20", real(e.CIR[0]))
	}
	m := s.Metrics()
	if m.FramesSubmitted != 20 || m.FramesInferred+m.FramesDropped != 20 {
		t.Fatalf("metrics don't account for all frames: %+v", m)
	}
}

// TestDropOldestBackpressure pins the queue policy: when the estimator is
// busy and the queue fills, the oldest queued frame is evicted and the
// newest always gets in.
func TestDropOldestBackpressure(t *testing.T) {
	est := &stubEstimator{gate: make(chan struct{}, 16), started: make(chan struct{}, 16)}
	s, err := New(Config{Estimator: est, QueueDepth: 3, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Frame 1 is picked up and blocks inside the estimator.
	if _, _, err := s.Submit(frame(1)); err != nil {
		t.Fatal(err)
	}
	<-est.started
	// Frames 2, 3, 4 fill the queue; frame 5 evicts frame 2.
	for i := 2; i <= 4; i++ {
		if _, dropped, err := s.Submit(frame(i)); err != nil || dropped {
			t.Fatalf("frame %d: dropped=%v err=%v", i, dropped, err)
		}
	}
	seq5, dropped, err := s.Submit(frame(5))
	if err != nil {
		t.Fatal(err)
	}
	if !dropped {
		t.Fatal("frame 5 should evict the oldest queued frame")
	}
	est.gate <- struct{}{} // release frame 1's inference
	est.gate <- struct{}{} // release the drained batch {3,4,5}
	if _, ok := s.WaitFor(seq5, 5*time.Second); !ok {
		t.Fatal("frame 5 estimate never published")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.FramesDropped != 1 {
		t.Fatalf("FramesDropped = %d, want 1", m.FramesDropped)
	}
	if m.FramesInferred != 4 {
		t.Fatalf("FramesInferred = %d, want 4 (frame 2 evicted)", m.FramesInferred)
	}
	if got := est.batchSizes(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("batch sizes = %v, want [1 3]", got)
	}
	e, _ := s.Latest()
	if e.FrameSeq != seq5 || e.Batch != 3 {
		t.Fatalf("latest = seq %d batch %d, want seq %d batch 3", e.FrameSeq, e.Batch, seq5)
	}
}

// TestBatchAmortization: everything that queues during one inference is
// drained as a single EstimateBatch call (up to MaxBatch).
func TestBatchAmortization(t *testing.T) {
	est := &stubEstimator{gate: make(chan struct{}, 16), started: make(chan struct{}, 16)}
	s, err := New(Config{Estimator: est, QueueDepth: 16, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.Submit(frame(1))
	<-est.started
	var last uint64
	for i := 2; i <= 7; i++ { // 6 frames queue up: batches of 4 then 2
		last, _, _ = s.Submit(frame(i))
	}
	for i := 0; i < 3; i++ {
		est.gate <- struct{}{}
	}
	if _, ok := s.WaitFor(last, 5*time.Second); !ok {
		t.Fatal("frame 7 estimate never published")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := est.batchSizes(); len(got) != 3 || got[0] != 1 || got[1] != 4 || got[2] != 2 {
		t.Fatalf("batch sizes = %v, want [1 4 2]", got)
	}
	m := s.Metrics()
	if m.Batches != 3 || m.FramesInferred != 7 {
		t.Fatalf("metrics = %+v, want 3 batches / 7 inferred", m)
	}
}

// TestManyConcurrentLinks is the serving-scale acceptance test: ≥100 link
// sessions read estimates through Fetch — the path both transports use —
// concurrently with the camera feed, and every served estimate's age
// stays within one frame period plus the inference latency. Time is
// virtual (a manual clock that only advances between publish cycles), so
// in clock terms the inference latency is zero and the bound is exactly
// the frame period; goroutine interleaving stays real, which is what
// -race exercises.
func TestManyConcurrentLinks(t *testing.T) {
	runManyConcurrentLinks(t, &stubEstimator{}, 0, frame)
}

// cnnFrame builds a full-size preprocessed depth image whose pixels vary
// with the frame index, so every inference sees distinct activations.
func cnnFrame(n int) []float32 {
	img := make([]float32, dataset.ImagePixels)
	for p := range img {
		img[p] = float32((n*31+p)%97) / 96
	}
	return img
}

// TestManyConcurrentLinksCNN is the serving-scale acceptance test again,
// with the real estimator stack underneath: a tiny untrained core.VVD on
// the float32 GEMM engine instead of the 1-pixel stub (the serving path
// only cares that EstimateBatch is a real CNN forward pass, not that the
// weights mean anything). Same 120 links, same virtual-clock freshness and
// age bounds, and the service must report the engine's inference mode.
func TestManyConcurrentLinksCNN(t *testing.T) {
	arch := core.Arch{Conv1: 2, Conv2: 2, Conv3: 4, Conv4: 4, Dense: 16, Pool: nn.AvgPool}
	net, err := core.BuildNetwork(arch, rand.New(rand.NewPCG(11, 13)))
	if err != nil {
		t.Fatal(err)
	}
	v := &core.VVD{Net: net, Norm: 1, Mean: make([]complex128, core.OutputTaps)}
	m := runManyConcurrentLinks(t, v, dataset.ImagePixels, cnnFrame)
	if m.InferMode != "float32" {
		t.Fatalf("Metrics().InferMode = %q, want float32", m.InferMode)
	}
}

// runManyConcurrentLinks is the acceptance body shared by the stub and the
// CNN variants: the estimator and frame shape are the only degrees of
// freedom, every assertion is estimator-agnostic (sequence numbers and
// ages, never CIR contents). It returns the closed service's metrics.
func runManyConcurrentLinks(t *testing.T, est BatchEstimator, inputSize int, mkFrame func(int) []float32) Metrics {
	t.Helper()
	const (
		nLinks      = 120
		nFrames     = 40
		framePeriod = 33 * time.Millisecond
	)
	clk := &fakeClock{}
	s, err := New(Config{Estimator: est, InputSize: inputSize, QueueDepth: 8, MaxBatch: 8, Clock: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, nLinks)
	for i := range ids {
		ids[i] = fmt.Sprintf("link-%03d", i)
		// The first Fetch opens the session; nothing is published yet.
		if _, err := s.Fetch(ids[i]); !errors.Is(err, ErrNoEstimate) {
			t.Fatalf("Fetch before any publish = %v, want ErrNoEstimate", err)
		}
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	var violations atomic.Int64
	var lastSubmitted atomic.Uint64
	for _, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				floor := s.Metrics().LastSeq // published before our read
				e, err := s.Fetch(id)
				switch {
				case err == nil:
					// Freshest-wins: never older than what was already
					// published when we asked.
					if e.FrameSeq < floor {
						violations.Add(1)
					}
					if e.FrameSeq > lastSubmitted.Load() {
						violations.Add(1)
					}
				case !errors.Is(err, ErrNoEstimate):
					violations.Add(1)
				}
				runtime.Gosched()
			}
		}()
	}

	var lastSeq uint64
	for i := 1; i <= nFrames; i++ {
		clk.advance(framePeriod)
		// The single feeder owns the sequence space, so frame i gets seq i;
		// publish the bound before Submit so readers never race ahead of it.
		lastSubmitted.Store(uint64(i))
		seq, _, err := s.SubmitAt(mkFrame(i), clk.now())
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i) {
			t.Fatalf("seq = %d, want %d", seq, i)
		}
		lastSeq = seq
		if _, ok := s.WaitFor(seq, 10*time.Second); !ok {
			t.Fatalf("frame %d never published", i)
		}
	}
	close(done)
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	if violations.Load() != 0 {
		t.Fatalf("%d freshness violations across %d links", violations.Load(), nLinks)
	}
	var served uint64
	for _, st := range s.Links() {
		served += st.Served
		// The age bound: frame period + inference latency (zero in
		// virtual time, since the clock only advances between frames).
		if st.MaxAge > framePeriod {
			t.Fatalf("link %s served an estimate aged %v > frame period %v", st.ID, st.MaxAge, framePeriod)
		}
	}
	e, ok := s.Latest()
	if !ok || e.FrameSeq != lastSeq {
		t.Fatalf("final latest seq %d, want %d", e.FrameSeq, lastSeq)
	}
	m := s.Metrics()
	if m.ActiveLinks != nLinks {
		t.Fatalf("ActiveLinks = %d, want %d", m.ActiveLinks, nLinks)
	}
	if m.EstimatesServed != served {
		t.Fatalf("EstimatesServed = %d, links saw %d", m.EstimatesServed, served)
	}
	t.Logf("%d links served %d estimates over %d frames (mean %.1f reads/frame/link)",
		nLinks, served, nFrames, float64(served)/float64(nFrames)/float64(nLinks))
	return m
}

func TestSubmitValidationAndClose(t *testing.T) {
	est := &stubEstimator{}
	s, err := New(Config{Estimator: est, InputSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Submit([]float32{1, 2}); err == nil {
		t.Fatal("wrong-size frame must be rejected")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Submit(frame(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("double close must be a no-op")
	}
	if _, ok := s.WaitFor(99, 10*time.Millisecond); ok {
		t.Fatal("WaitFor on a closed, drained service must fail")
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without estimator must fail")
	}
}

func TestEstimatorErrorStopsService(t *testing.T) {
	boom := errors.New("inference exploded")
	est := &stubEstimator{err: boom}
	s, err := New(Config{Estimator: est})
	if err != nil {
		t.Fatal(err)
	}
	seq, _, err := s.Submit(frame(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.WaitFor(seq, time.Second); ok {
		t.Fatal("failed inference must not publish")
	}
	if err := s.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want the estimator error", err)
	}
	if m := s.Metrics(); m.Err == "" {
		t.Fatal("metrics must surface the estimator error")
	}
}

func TestLinkCapAndInvalidID(t *testing.T) {
	s, err := New(Config{Estimator: &stubEstimator{}, MaxLinks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.sessionFor(""); err == nil {
		t.Fatal("empty link id must fail")
	}
	a, err := s.sessionFor("a")
	if err != nil {
		t.Fatal(err)
	}
	if again, err := s.sessionFor("a"); err != nil || again != a {
		t.Fatalf("reopening an existing session must return it: %v", err)
	}
	if _, err := s.sessionFor("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.sessionFor("c"); !errors.Is(err, ErrLinkLimit) {
		t.Fatalf("third session = %v, want ErrLinkLimit", err)
	}
	if _, err := s.Fetch("c"); !errors.Is(err, ErrLinkLimit) {
		t.Fatalf("Fetch on a third session = %v, want ErrLinkLimit", err)
	}
	if !s.CloseLink("a") || s.CloseLink("a") {
		t.Fatal("CloseLink must report true for an open id, then false")
	}
	if _, err := s.sessionFor("c"); err != nil {
		t.Fatalf("closing a session must free capacity: %v", err)
	}
}

// TestSessionGetOrOpenRace: concurrent first uses of one id share a single
// session, so the cap never rejects an opener that lost the race. Each
// round races a fresh id and closes it afterwards, freeing the one slot.
func TestSessionGetOrOpenRace(t *testing.T) {
	s, err := New(Config{Estimator: &stubEstimator{}, MaxLinks: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const rounds, n = 200, 32
	for r := range rounds {
		id := fmt.Sprintf("shared-%d", r)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for range n {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if _, err := s.Fetch(id); !errors.Is(err, ErrNoEstimate) {
					t.Errorf("round %d: Fetch = %v, want ErrNoEstimate (session opened, nothing published)", r, err)
				}
			}()
		}
		close(start)
		wg.Wait()
		if links := s.Links(); len(links) != 1 || links[0].ID != id {
			t.Fatalf("round %d: Links() = %+v, want exactly the one shared session", r, links)
		}
		s.CloseLink(id)
	}
}
