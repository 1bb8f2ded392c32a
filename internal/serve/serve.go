// Package serve turns a trained VVD model into a long-running estimation
// service: one depth-frame stream in, fresh channel estimates out to any
// number of concurrent link sessions.
//
// The paper's scalability argument (§6.6, Table 1) is that camera-based
// estimation costs one CNN inference per frame *no matter how many links
// it serves* — the estimate describes the environment, not a transmitter.
// This package is that argument as infrastructure:
//
//   - Frames enter a single pending slot via Submit. A frame that arrives
//     while another is still waiting supersedes it: a stale depth frame is
//     worthless once a fresher one exists, so it is never inferred.
//   - A single estimator goroutine takes the pending frame, runs one CNN
//     inference on it (core.VVD.EstimateBatch with a one-frame batch) and
//     publishes the result, freshest-wins: every read returns the estimate
//     of the newest inferred frame, stamped with its capture time so
//     consumers can judge its age against the channel coherence time
//     (~50 ms indoors). Publishing is O(1) in the number of links, and an
//     estimator that falls behind still infers one frame per cycle, so
//     estimate age does not grow with the backlog.
//   - Reads go through Fetch (or SubmitAndWait), which names a link
//     session. Sessions open on first use and are pure bookkeeping: each
//     records how many estimates it was served and how old they were
//     (Links). Latest reads the same value without touching any session.
//
// The package has no transport. internal/wire serves a Service through
// one dispatcher (wire.ServiceHandler), over its binary protocol and over
// HTTP/JSON alike; both call the same SubmitAndWait/Fetch flow.
// `vvd-serve -demo` drives one from a simulated camera in real time.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed is returned by Submit once the service has stopped —
// explicitly via Close, or because the estimator failed (see Err).
var ErrClosed = errors.New("serve: service closed")

// BatchEstimator is the inference dependency of a Service: batched
// image→CIR estimation, called with one frame per inference.
// *core.VVD implements it; tests substitute stubs.
type BatchEstimator interface {
	EstimateBatch(imgs [][]float32) ([][]complex128, error)
}

// ModeReporter is an optional BatchEstimator extension that reports the
// active inference kernel set ("float32", or "untrained" for a VVD with
// no network).
// When the estimator implements it, Metrics and /metricsz expose the
// mode. *core.VVD implements it.
type ModeReporter interface {
	InferenceMode() string
}

// Config parameterizes a Service.
type Config struct {
	// Estimator runs the CNN inference. Required.
	Estimator BatchEstimator
	// InputSize, when non-zero, lets Submit reject frames of the wrong
	// pixel count up front (use model.Net.In.Size()).
	InputSize int
	// MaxLinks, when non-zero, caps the number of open link sessions —
	// the guard that keeps unauthenticated GET /estimate?link=<random>
	// traffic from growing the session map without bound. 0 = unlimited.
	MaxLinks int
	// Clock substitutes a time source (tests). Default time.Now.
	Clock func() time.Time
}

// Frame is one submitted depth frame.
type Frame struct {
	Seq        uint64 // 1-based submission sequence number
	Image      []float32
	CapturedAt time.Time
}

// Estimate is one published channel estimate.
type Estimate struct {
	CIR         []complex128
	FrameSeq    uint64        // frame the estimate was inferred from
	CapturedAt  time.Time     // when that frame was captured
	PublishedAt time.Time     // when the estimate became visible
	Inference   time.Duration // latency of the inference that produced it
}

// AgeAt returns how old the underlying channel observation is at the
// given instant — the quantity the paper compares to the coherence time.
func (e Estimate) AgeAt(now time.Time) time.Duration { return now.Sub(e.CapturedAt) }

// Metrics is a point-in-time snapshot of service counters.
type Metrics struct {
	FramesSubmitted uint64
	FramesDropped   uint64 // superseded in the pending slot before inference
	FramesInferred  uint64
	Batches         uint64        // EstimateBatch calls: one per inferred frame
	InferMean       time.Duration // mean latency of one inference
	InferMax        time.Duration // worst single inference latency
	LastSeq         uint64        // newest published frame sequence (0 = none)
	QueueLen        int           // 1 while a frame waits for inference, else 0
	ActiveLinks     int
	EstimatesServed uint64        // Fetch/SubmitAndWait reads across all sessions, ever
	AgeP50          time.Duration // median served-estimate age (recent window)
	AgeP99          time.Duration // tail served-estimate age — mean/max hide this
	InferMode       string        // estimator kernel set, when it reports one
	Err             string        // first estimator error, if any
}

// Service is the multi-link estimation pipeline. Create with New, feed
// with Submit, read through Fetch or Latest, stop with Close.
// All methods are safe for concurrent use.
type Service struct {
	cfg   Config
	clock func() time.Time

	mu        sync.Mutex // pending frame + submission counters
	cond      *sync.Cond
	pending   Frame // the frame awaiting inference; Seq 0 = empty
	nextSeq   uint64
	submitted uint64
	dropped   uint64
	closed    bool

	state      sync.RWMutex // published estimate, links, inference counters
	latest     Estimate
	links      map[string]*session
	inferred   uint64
	inferTotal time.Duration
	inferMax   time.Duration
	err        error

	served atomic.Uint64 // Fetch/SubmitAndWait reads across all sessions
	ages   ageSampler    // recent served ages for the percentile snapshot

	pubMu   sync.Mutex // publish broadcast for WaitFor
	pubCh   chan struct{}
	lastPub uint64

	done chan struct{}
}

// New starts a Service; the estimator goroutine runs until Close.
func New(cfg Config) (*Service, error) {
	if cfg.Estimator == nil {
		return nil, errors.New("serve: Config.Estimator is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	s := &Service{
		cfg:   cfg,
		clock: cfg.Clock,
		links: map[string]*session{},
		pubCh: make(chan struct{}),
		done:  make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	go s.run()
	return s, nil
}

// Submit submits a frame captured now. See SubmitAt.
func (s *Service) Submit(img []float32) (seq uint64, droppedOldest bool, err error) {
	return s.SubmitAt(img, s.clock())
}

// SubmitAt makes a frame with an explicit capture time the pending frame
// and returns its sequence number. A frame still waiting for inference is
// superseded and never inferred (droppedOldest reports that) — the newest
// observation always gets in. Submitting to a closed service returns an
// error.
func (s *Service) SubmitAt(img []float32, capturedAt time.Time) (seq uint64, droppedOldest bool, err error) {
	if err := s.checkPixels(img); err != nil {
		return 0, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, false, ErrClosed
	}
	s.nextSeq++
	seq = s.nextSeq
	if s.pending.Seq != 0 {
		s.dropped++
		droppedOldest = true
	}
	s.pending = Frame{Seq: seq, Image: img, CapturedAt: capturedAt}
	s.submitted++
	s.cond.Signal()
	return seq, droppedOldest, nil
}

// checkPixels refuses a frame whose pixel count differs from
// Config.InputSize, when that is set.
func (s *Service) checkPixels(img []float32) error {
	if s.cfg.InputSize > 0 && len(img) != s.cfg.InputSize {
		return fmt.Errorf("serve: frame has %d pixels, want %d", len(img), s.cfg.InputSize)
	}
	return nil
}

// Latest returns the freshest published estimate (ok=false before the
// first publish). It records nothing; Fetch is the same read counted in
// a link session's statistics.
func (s *Service) Latest() (Estimate, bool) {
	s.state.RLock()
	defer s.state.RUnlock()
	return s.latest, s.latest.FrameSeq != 0
}

// WaitFor blocks until an estimate for frame sequence seq or newer has
// been published, then returns the freshest estimate. ok=false on
// timeout or when the service stops before reaching seq (a superseded
// frame is never inferred, but the frame that superseded it satisfies the
// wait).
func (s *Service) WaitFor(seq uint64, timeout time.Duration) (Estimate, bool) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		s.pubMu.Lock()
		last, ch := s.lastPub, s.pubCh
		s.pubMu.Unlock()
		if last >= seq {
			return s.Latest()
		}
		select {
		case <-ch:
		case <-s.done:
			// Drained and stopped without reaching seq.
			s.pubMu.Lock()
			last = s.lastPub
			s.pubMu.Unlock()
			if last >= seq {
				return s.Latest()
			}
			return Estimate{}, false
		case <-deadline.C:
			return Estimate{}, false
		}
	}
}

// Now reads the service clock (Config.Clock) — the time base every
// transport must use when stamping estimate ages.
func (s *Service) Now() time.Time { return s.clock() }

// Err returns the first estimator error, if any.
func (s *Service) Err() error {
	s.state.RLock()
	defer s.state.RUnlock()
	return s.err
}

// Metrics returns a consistent snapshot of the service counters: both
// counter groups are read under their locks simultaneously (frame lock,
// then state lock — no other path holds both), so the snapshot can never
// show more frames inferred than were submitted.
func (s *Service) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := Metrics{
		FramesSubmitted: s.submitted,
		FramesDropped:   s.dropped,
	}
	if s.pending.Seq != 0 {
		m.QueueLen = 1
	}
	s.state.RLock()
	m.FramesInferred = s.inferred
	m.Batches = s.inferred
	if s.inferred > 0 {
		m.InferMean = s.inferTotal / time.Duration(s.inferred)
	}
	m.InferMax = s.inferMax
	m.LastSeq = s.latest.FrameSeq
	m.ActiveLinks = len(s.links)
	m.EstimatesServed = s.served.Load()
	m.AgeP50, m.AgeP99 = s.ages.percentiles()
	if s.err != nil {
		m.Err = s.err.Error()
	}
	s.state.RUnlock()
	if mr, ok := s.cfg.Estimator.(ModeReporter); ok {
		m.InferMode = mr.InferenceMode()
	}
	return m
}

// Close stops accepting frames, lets the estimator infer the pending
// frame, waits for it to exit and returns the first estimator error.
func (s *Service) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	<-s.done
	return s.Err()
}

// run is the estimator goroutine: take the pending frame, infer, publish,
// repeat.
func (s *Service) run() {
	defer close(s.done)
	for {
		f, ok := s.take()
		if !ok {
			return
		}
		t0 := s.clock()
		cirs, err := s.cfg.Estimator.EstimateBatch([][]float32{f.Image})
		lat := s.clock().Sub(t0)
		if err == nil && len(cirs) != 1 {
			err = fmt.Errorf("serve: estimator returned %d estimates for 1 frame", len(cirs))
		}
		if err != nil {
			s.state.Lock()
			if s.err == nil {
				s.err = err
			}
			s.state.Unlock()
			s.mu.Lock()
			s.closed = true
			s.pending = Frame{}
			s.mu.Unlock()
			return
		}
		s.publish(f, cirs[0], lat)
	}
}

// take blocks until a frame is pending (or the service closed with none
// left) and empties the slot.
func (s *Service) take() (Frame, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.pending.Seq == 0 && !s.closed {
		s.cond.Wait()
	}
	f := s.pending
	s.pending = Frame{}
	return f, f.Seq != 0
}

// publish makes the frame's estimate visible as Latest and wakes WaitFor
// callers, including those whose frames it superseded. Publish order is
// submission order because run() is the only publisher.
func (s *Service) publish(f Frame, cir []complex128, lat time.Duration) {
	e := Estimate{
		CIR:         cir,
		FrameSeq:    f.Seq,
		CapturedAt:  f.CapturedAt,
		PublishedAt: s.clock(),
		Inference:   lat,
	}
	s.state.Lock()
	s.latest = e
	s.inferred++
	s.inferTotal += lat
	if lat > s.inferMax {
		s.inferMax = lat
	}
	s.state.Unlock()

	s.pubMu.Lock()
	s.lastPub = f.Seq
	close(s.pubCh)
	s.pubCh = make(chan struct{})
	s.pubMu.Unlock()
}
