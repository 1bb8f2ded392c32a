package serve

import (
	"errors"
	"fmt"
	"time"
)

// DefaultWait is how long SubmitAndWait blocks for the submitted frame's
// estimate when the caller does not say — a few camera frame periods.
const DefaultWait = 2 * time.Second

// MaxWait caps the estimate wait any transport may request; a longer wait
// is clamped, bounding how long a client can park a handler goroutine and
// its decoded frame.
const MaxWait = time.Minute

// Transport-agnostic error taxonomy: internal/wire maps these sentinels
// (and ErrClosed) onto its statuses in one place, and its binary and
// HTTP/JSON front-ends both answer with those statuses.
var (
	// ErrNoEstimate: the service has not published a single estimate yet.
	ErrNoEstimate = errors.New("serve: no estimate published yet")
	// ErrNotReady: the submitted frame's estimate did not arrive within
	// the wait budget (the frame may still be inferred later).
	ErrNotReady = errors.New("serve: estimate not ready")
	// ErrLinkLimit: Config.MaxLinks open sessions already exist.
	ErrLinkLimit = errors.New("serve: link session limit reached")
)

// SubmitResult is the outcome of one SubmitAndWait call: the estimate
// served to the link plus the submission bookkeeping the transports echo
// back to the client.
type SubmitResult struct {
	Estimate
	SubmittedSeq  uint64 // sequence assigned to the submitted frame
	DroppedOldest bool   // submission superseded a frame still waiting for inference
}

// SubmitAndWait is the whole "POST a frame" session flow with no
// transport attached: resolve (auto-open) the link session, submit the
// frame, wait until an estimate for it — or a newer frame, freshest-wins —
// is published, and serve that estimate through the session so its
// statistics record it. wait < 0 is fire-and-forget: the frame is
// submitted and the result carries only the submission bookkeeping (no
// estimate, nothing recorded). wait == 0 means DefaultWait; a wait above
// MaxWait is clamped to it. Every transport calls this one function and
// only chooses the reply shape.
//
// Errors are the package sentinels (possibly wrapped): ErrLinkLimit,
// ErrClosed, ErrNotReady, ErrNoEstimate; anything else is a malformed
// frame (wrong pixel count, empty image).
func (s *Service) SubmitAndWait(linkID string, img []float32, wait time.Duration) (SubmitResult, error) {
	// The frame is checked before the session opens, so a malformed frame
	// for a new link id holds no MaxLinks slot.
	if len(img) == 0 {
		return SubmitResult{}, fmt.Errorf("serve: empty frame")
	}
	if err := s.checkPixels(img); err != nil {
		return SubmitResult{}, err
	}
	l, err := s.sessionFor(linkID)
	if err != nil {
		return SubmitResult{}, err
	}
	seq, dropped, err := s.Submit(img)
	if err != nil {
		return SubmitResult{}, err
	}
	res := SubmitResult{SubmittedSeq: seq, DroppedOldest: dropped}
	if wait < 0 {
		return res, nil
	}
	if wait == 0 {
		wait = DefaultWait
	}
	wait = min(wait, MaxWait)
	if _, ok := s.WaitFor(seq, wait); !ok {
		select {
		case <-s.done:
			return res, ErrClosed
		default:
			return res, fmt.Errorf("%w: frame %d after %v", ErrNotReady, seq, wait)
		}
	}
	res.Estimate, err = s.serveLatest(l)
	return res, err
}

// Fetch is the transport-agnostic "GET the freshest estimate" flow:
// resolve (auto-open) the link session and serve the latest published
// estimate through it. ErrNoEstimate before the first publish.
func (s *Service) Fetch(linkID string) (Estimate, error) {
	l, err := s.sessionFor(linkID)
	if err != nil {
		return Estimate{}, err
	}
	return s.serveLatest(l)
}

// serveLatest reads the freshest published estimate and records its age
// in the session and the service-wide served counters.
func (s *Service) serveLatest(l *session) (Estimate, error) {
	e, ok := s.Latest()
	if !ok {
		return Estimate{}, ErrNoEstimate
	}
	age := e.AgeAt(s.clock())
	l.record(age)
	s.served.Add(1)
	s.ages.record(age)
	return e, nil
}
