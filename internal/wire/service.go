package wire

import (
	"errors"
	"time"

	"vvd/internal/serve"
)

// ServiceHandler adapts a serve.Service to the Handler interface that
// both the binary Server and the HTTP/JSON codec (NewHTTPHandler)
// dispatch to: the service's session flow (Service.SubmitAndWait /
// Fetch), with the serve error taxonomy mapped onto wire statuses.
type ServiceHandler struct {
	svc *serve.Service
}

// NewServiceHandler wraps a running Service.
func NewServiceHandler(svc *serve.Service) *ServiceHandler {
	return &ServiceHandler{svc: svc}
}

// statusErr maps the serve error taxonomy onto wire statuses. It is the
// only such map: HTTP reaches its codes from these statuses.
func statusErr(err error) error {
	var se *StatusError
	if errors.As(err, &se) {
		return err
	}
	code := StatusBadRequest
	switch {
	case errors.Is(err, serve.ErrLinkLimit):
		code = StatusTooManyLinks
	case errors.Is(err, serve.ErrClosed):
		code = StatusUnavailable
	case errors.Is(err, serve.ErrNotReady):
		code = StatusNotReady
	case errors.Is(err, serve.ErrNoEstimate):
		code = StatusNoEstimate
	}
	return &StatusError{Code: code, Msg: err.Error()}
}

// fillEstimate converts a served estimate into the wire reply, reusing
// the reply's CIR capacity. The float64→float32 narrowing drops only
// digits below the network's own precision: the inference engine
// computes float32, and VVD's float64 denormalization (scale and mean)
// adds no information to it.
func fillEstimate(reply *EstimateReply, e serve.Estimate, now time.Time) {
	reply.FrameSeq = e.FrameSeq
	reply.Age = e.AgeAt(now)
	reply.Inference = e.Inference
	reply.CIR = reply.CIR[:0]
	for _, c := range e.CIR {
		reply.CIR = append(reply.CIR, complex64(c))
	}
}

// Submit implements Handler.
func (h *ServiceHandler) Submit(link string, img []float32, wait time.Duration, reply *EstimateReply) error {
	res, err := h.svc.SubmitAndWait(link, img, wait)
	if err != nil {
		return statusErr(err)
	}
	*reply = EstimateReply{SubmittedSeq: res.SubmittedSeq, DroppedOldest: res.DroppedOldest, CIR: reply.CIR[:0]}
	if wait >= 0 {
		fillEstimate(reply, res.Estimate, h.svc.Now())
	}
	return nil
}

// Fetch implements Handler.
func (h *ServiceHandler) Fetch(link string, reply *EstimateReply) error {
	e, err := h.svc.Fetch(link)
	if err != nil {
		return statusErr(err)
	}
	fillEstimate(reply, e, h.svc.Now())
	reply.SubmittedSeq = 0
	reply.DroppedOldest = false
	return nil
}

// Stats implements Handler.
func (h *ServiceHandler) Stats(link string) ([]LinkStats, error) {
	all := h.svc.Links() // sorted by id
	if link == "" {
		return all, nil
	}
	for _, st := range all {
		if st.ID == link {
			return []LinkStats{st}, nil
		}
	}
	return nil, Errf(StatusNoEstimate, "link %q not open", link)
}

// CloseLink implements Handler.
func (h *ServiceHandler) CloseLink(link string) error {
	if !h.svc.CloseLink(link) {
		return Errf(StatusNoEstimate, "link %q not open", link)
	}
	return nil
}

// Metrics implements Handler.
func (h *ServiceHandler) Metrics() (MetricsReply, error) {
	return h.svc.Metrics(), nil
}

// Ping implements Handler. Inflight is filled by the wire server.
func (h *ServiceHandler) Ping() (PongReply, error) {
	m := h.svc.Metrics()
	if m.Err != "" {
		return PongReply{}, Errf(StatusUnavailable, "estimator failed: %s", m.Err)
	}
	return PongReply{
		QueueLen:        m.QueueLen,
		ActiveLinks:     m.ActiveLinks,
		EstimatesServed: m.EstimatesServed,
	}, nil
}
