package serve

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
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
// inference block deterministically; calls records the frames (by first
// pixel) handed to every EstimateBatch call.
type stubEstimator struct {
	mu      sync.Mutex
	calls   [][]int
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
	frames := make([]int, len(imgs))
	out := make([][]complex128, len(imgs))
	for i, img := range imgs {
		frames[i] = int(img[0])
		out[i] = []complex128{complex(float64(img[0]), 0)}
	}
	e.mu.Lock()
	e.calls = append(e.calls, frames)
	e.mu.Unlock()
	return out, nil
}

func (e *stubEstimator) inferred() [][]int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([][]int(nil), e.calls...)
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

// TestOnlyNewestFrameInferred pins the pending-slot policy: while the
// estimator is busy, each new frame supersedes the one waiting, so the
// next inference runs on the newest frame alone. Superseded frames count
// as dropped, and their waiters are released by the newer publish.
func TestOnlyNewestFrameInferred(t *testing.T) {
	est := &stubEstimator{gate: make(chan struct{}, 2), started: make(chan struct{}, 2)}
	s, err := New(Config{Estimator: est})
	if err != nil {
		t.Fatal(err)
	}
	// Frame 1 is picked up and blocks inside the estimator.
	if _, _, err := s.Submit(frame(1)); err != nil {
		t.Fatal(err)
	}
	<-est.started
	// Frames 2–5 arrive meanwhile; each of 3–5 supersedes its predecessor.
	seqs := make([]uint64, 6)
	for i := 2; i <= 5; i++ {
		seq, dropped, err := s.Submit(frame(i))
		if err != nil {
			t.Fatal(err)
		}
		if dropped != (i > 2) {
			t.Fatalf("frame %d: droppedOldest = %v, want %v", i, dropped, i > 2)
		}
		seqs[i] = seq
	}
	// Waiters for the superseded frames are served frame 5's estimate.
	var wg sync.WaitGroup
	got := make([]Estimate, 6)
	for i := 2; i <= 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = s.WaitFor(seqs[i], 5*time.Second)
		}()
	}
	est.gate <- struct{}{} // release frame 1's inference
	est.gate <- struct{}{} // release the next one
	wg.Wait()
	for i := 2; i <= 4; i++ {
		if got[i].FrameSeq != seqs[5] || real(got[i].CIR[0]) != 5 {
			t.Fatalf("waiter for frame %d got seq %d (CIR %v), want frame 5's estimate (seq %d)",
				i, got[i].FrameSeq, got[i].CIR, seqs[5])
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	calls := est.inferred()
	if len(calls) != 2 || len(calls[0]) != 1 || calls[0][0] != 1 || len(calls[1]) != 1 || calls[1][0] != 5 {
		t.Fatalf("EstimateBatch calls = %v, want [[1] [5]]", calls)
	}
	m := s.Metrics()
	if m.FramesDropped != 3 || m.FramesInferred != 2 || m.Batches != 2 {
		t.Fatalf("metrics = %+v, want 3 dropped, 2 inferred, 2 batches", m)
	}
	if m.FramesSubmitted != m.FramesInferred+m.FramesDropped {
		t.Fatalf("FramesSubmitted %d != inferred %d + dropped %d", m.FramesSubmitted, m.FramesInferred, m.FramesDropped)
	}
}

// TestDropOldestBackpressure pins the backpressure policy: a stalled
// estimator never blocks Submit and never holds more than one waiting
// frame — each arrival evicts the oldest waiting frame, and the newest
// always gets in.
func TestDropOldestBackpressure(t *testing.T) {
	est := &stubEstimator{gate: make(chan struct{}, 2), started: make(chan struct{}, 2)}
	s, err := New(Config{Estimator: est})
	if err != nil {
		t.Fatal(err)
	}
	// Frame 1 is picked up and blocks inside the estimator.
	if _, _, err := s.Submit(frame(1)); err != nil {
		t.Fatal(err)
	}
	<-est.started
	const last = 40
	submitted := make(chan uint64)
	go func() {
		defer close(submitted)
		for i := 2; i <= last; i++ {
			seq, dropped, err := s.Submit(frame(i))
			if err != nil || dropped != (i > 2) {
				t.Errorf("frame %d: dropped=%v err=%v, want dropped=%v", i, dropped, err, i > 2)
				return
			}
			if m := s.Metrics(); m.QueueLen != 1 || m.FramesDropped != uint64(i-2) {
				t.Errorf("after frame %d: queue %d, dropped %d; want 1, %d", i, m.QueueLen, m.FramesDropped, i-2)
				return
			}
			if i == last {
				submitted <- seq
			}
		}
	}()
	var seqLast uint64
	select {
	case seqLast = <-submitted:
	case <-time.After(5 * time.Second):
		t.Fatal("Submit blocked behind a stalled estimator")
	}
	if t.Failed() {
		t.FailNow()
	}
	est.gate <- struct{}{} // release frame 1's inference
	est.gate <- struct{}{} // release the newest frame's
	e, ok := s.WaitFor(seqLast, 5*time.Second)
	if !ok || e.FrameSeq != seqLast || real(e.CIR[0]) != last {
		t.Fatalf("WaitFor(%d) = seq %d CIR %v ok=%v, want frame %d", seqLast, e.FrameSeq, e.CIR, ok, last)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.FramesDropped != last-2 || m.FramesInferred != 2 || m.QueueLen != 0 {
		t.Fatalf("metrics = %+v, want %d dropped, 2 inferred, empty slot", m, last-2)
	}
}

// TestBatchAmortization pins the paper's scalability claim at the service
// level: links that submit while the estimator is busy are all released
// by one inference of the newest frame, so the inference count does not
// grow with the number of waiting links.
func TestBatchAmortization(t *testing.T) {
	est := &stubEstimator{gate: make(chan struct{}, 2), started: make(chan struct{}, 2)}
	s, err := New(Config{Estimator: est})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Submit(frame(1)); err != nil {
		t.Fatal(err)
	}
	<-est.started
	const links = 16
	var wg sync.WaitGroup
	res := make([]SubmitResult, links)
	errs := make([]error, links)
	for i := range links {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i], errs[i] = s.SubmitAndWait(fmt.Sprintf("link-%d", i), frame(100+i), 5*time.Second)
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().FramesSubmitted < links+1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d frames submitted", s.Metrics().FramesSubmitted, links+1)
		}
		time.Sleep(time.Millisecond)
	}
	est.gate <- struct{}{} // release frame 1's inference
	est.gate <- struct{}{} // one inference for every waiting link
	wg.Wait()
	var newest uint64
	superseded := 0
	for i := range links {
		if errs[i] != nil {
			t.Fatalf("link %d: %v", i, errs[i])
		}
		newest = max(newest, res[i].SubmittedSeq)
		if res[i].DroppedOldest {
			superseded++
		}
	}
	for i := range links {
		if res[i].FrameSeq != newest {
			t.Fatalf("link %d served frame seq %d, want the newest %d", i, res[i].FrameSeq, newest)
		}
	}
	if superseded != links-1 {
		t.Fatalf("%d submissions superseded a waiting frame, want %d", superseded, links-1)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.Batches != 2 || m.FramesInferred != 2 || m.FramesDropped != links-1 {
		t.Fatalf("metrics = %+v, want 2 inferences for %d links, %d dropped", m, links, links-1)
	}
	if m.ActiveLinks != links || m.EstimatesServed != links {
		t.Fatalf("links %d / served %d, want %d / %d", m.ActiveLinks, m.EstimatesServed, links, links)
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
	s, err := New(Config{Estimator: est, InputSize: inputSize, Clock: clk.now})
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

// TestMalformedFrameHoldsNoLinkSlot: a frame refused for its pixel count
// opens no session, so malformed frames for new link ids cannot use up
// MaxLinks and lock out a valid link.
func TestMalformedFrameHoldsNoLinkSlot(t *testing.T) {
	s, err := New(Config{Estimator: &stubEstimator{}, MaxLinks: 2, InputSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, id := range []string{"x", "y"} {
		if _, err := s.SubmitAndWait(id, []float32{1, 2, 3}, 0); err == nil || !strings.Contains(err.Error(), "3 pixels") {
			t.Fatalf("3-pixel frame for %q = %v, want the pixel-count error", id, err)
		}
	}
	if _, err := s.SubmitAndWait("x", nil, 0); err == nil {
		t.Fatal("empty frame accepted")
	}
	if links := s.Links(); len(links) != 0 {
		t.Fatalf("Links() = %+v after refused frames, want none", links)
	}
	res, err := s.SubmitAndWait("z", []float32{1, 2}, time.Second)
	if err != nil {
		t.Fatalf("valid frame for z = %v", err)
	}
	if res.Estimate.FrameSeq != res.SubmittedSeq {
		t.Fatalf("z served frame %d, want %d", res.Estimate.FrameSeq, res.SubmittedSeq)
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
