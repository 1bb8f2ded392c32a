package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// NewHandler exposes a Service over HTTP/JSON (stdlib only):
//
//	POST   /estimate   {"link":"a","image":[...]}  submit a frame, wait for
//	                   its (or a newer) estimate and return it; wait_ms<0
//	                   submits without waiting (fire-and-forget feeders),
//	                   wait_ms above MaxWait is clamped to it
//	GET    /estimate?link=a                        freshest estimate for a link
//	GET    /links                                  per-session statistics
//	DELETE /links?id=a                             close a session
//	GET    /metricsz                               service counters
//
// Link sessions are opened on first use (429 once Config.MaxLinks is
// reached — set it on Internet-facing services). CIRs travel as
// [[re,im], ...] pairs and durations as milliseconds.
//
// The session flow itself lives in Service.SubmitAndWait/Fetch — this
// file only maps the serve error taxonomy onto HTTP status codes and
// JSON shapes; internal/wire maps the same flow onto the binary
// protocol.
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /estimate", func(w http.ResponseWriter, r *http.Request) {
		// Bound the body before decoding: an anonymous POST must not be
		// able to make the server buffer an arbitrarily long image array.
		// ~32 bytes per JSON-encoded pixel is generous.
		maxBody := int64(4 << 20)
		if s.cfg.InputSize > 0 {
			maxBody = int64(s.cfg.InputSize)*32 + 4096
		}
		r.Body = http.MaxBytesReader(w, r.Body, maxBody)
		body := bodyPool.Get().(*bytes.Buffer)
		defer func() { body.Reset(); bodyPool.Put(body) }()
		if _, err := body.ReadFrom(r.Body); err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
				return
			}
			httpError(w, http.StatusBadRequest, "reading body: %v", err)
			return
		}
		var req estimateRequest
		if err := json.Unmarshal(body.Bytes(), &req); err != nil {
			httpError(w, http.StatusBadRequest, "bad JSON: %v", err)
			return
		}
		if req.Link == "" {
			httpError(w, http.StatusBadRequest, "missing link id")
			return
		}
		if len(req.Image) == 0 {
			serveFetch(w, s, req.Link)
			return
		}
		wait := waitFromMS(req.WaitMS)
		res, err := s.SubmitAndWait(req.Link, req.Image, wait)
		if err != nil {
			httpError(w, statusFor(err), "%v", err)
			return
		}
		if wait < 0 {
			writeJSON(w, submitResponse{Link: req.Link, SubmittedSeq: res.SubmittedSeq, DroppedOldest: res.DroppedOldest})
			return
		}
		writeEstimate(w, s, req.Link, res.Estimate, res.SubmittedSeq, res.DroppedOldest)
	})
	mux.HandleFunc("GET /estimate", func(w http.ResponseWriter, r *http.Request) {
		id := r.URL.Query().Get("link")
		if id == "" {
			httpError(w, http.StatusBadRequest, "missing ?link=")
			return
		}
		serveFetch(w, s, id)
	})
	mux.HandleFunc("DELETE /links", func(w http.ResponseWriter, r *http.Request) {
		id := r.URL.Query().Get("id")
		if id == "" {
			httpError(w, http.StatusBadRequest, "missing ?id=")
			return
		}
		if !s.CloseLink(id) {
			httpError(w, http.StatusNotFound, "link %q not open", id)
			return
		}
		writeJSON(w, map[string]string{"closed": id})
	})
	mux.HandleFunc("GET /links", func(w http.ResponseWriter, r *http.Request) {
		stats := s.Links()
		out := make([]linkJSON, len(stats))
		for i, st := range stats {
			out[i] = linkJSON{
				ID: st.ID, Served: st.Served,
				LastAgeMS: ms(st.LastAge), MeanAgeMS: ms(st.MeanAge), MaxAgeMS: ms(st.MaxAge),
				OpenedAt: st.OpenedAt,
			}
		}
		writeJSON(w, map[string]any{"links": out})
	})
	mux.HandleFunc("GET /metricsz", func(w http.ResponseWriter, r *http.Request) {
		m := s.Metrics()
		writeJSON(w, metricsJSON{
			FramesSubmitted: m.FramesSubmitted, FramesDropped: m.FramesDropped,
			FramesInferred: m.FramesInferred, Batches: m.Batches,
			InferMeanMS: ms(m.InferMean), InferMaxMS: ms(m.InferMax), LastSeq: m.LastSeq,
			QueueLen: m.QueueLen, ActiveLinks: m.ActiveLinks,
			EstimatesServed: m.EstimatesServed,
			AgeP50MS:        ms(m.AgeP50), AgeP99MS: ms(m.AgeP99),
			InferMode: m.InferMode, Err: m.Err,
		})
	})
	return mux
}

// statusFor maps the serve error taxonomy onto HTTP status codes.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrLinkLimit):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		// A closed service is a server-side condition (estimator failure
		// or shutdown), not a malformed request.
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrNotReady):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrNoEstimate):
		return http.StatusNotFound
	default:
		return http.StatusBadRequest
	}
}

type estimateRequest struct {
	Link   string    `json:"link"`
	Image  []float32 `json:"image,omitempty"`
	WaitMS int       `json:"wait_ms,omitempty"`
}

// waitFromMS converts a request's wait_ms to a Duration, clamping to
// ±MaxWait before multiplying so no value can overflow and every
// negative wait_ms stays a negative (fire-and-forget) wait.
func waitFromMS(ms int) time.Duration {
	const maxMS = int(MaxWait / time.Millisecond)
	return time.Duration(min(max(ms, -maxMS), maxMS)) * time.Millisecond
}

type estimateResponse struct {
	Link          string       `json:"link"`
	FrameSeq      uint64       `json:"frame_seq"`
	SubmittedSeq  uint64       `json:"submitted_seq,omitempty"`
	DroppedOldest bool         `json:"dropped_oldest,omitempty"`
	CIR           [][2]float64 `json:"cir"`
	AgeMS         float64      `json:"age_ms"`
	InferenceMS   float64      `json:"inference_ms"`
}

type submitResponse struct {
	Link          string `json:"link"`
	SubmittedSeq  uint64 `json:"submitted_seq"`
	DroppedOldest bool   `json:"dropped_oldest,omitempty"`
}

type linkJSON struct {
	ID        string    `json:"id"`
	Served    uint64    `json:"served"`
	LastAgeMS float64   `json:"last_age_ms"`
	MeanAgeMS float64   `json:"mean_age_ms"`
	MaxAgeMS  float64   `json:"max_age_ms"`
	OpenedAt  time.Time `json:"opened_at"`
}

type metricsJSON struct {
	FramesSubmitted uint64  `json:"frames_submitted"`
	FramesDropped   uint64  `json:"frames_dropped"` // superseded before inference
	FramesInferred  uint64  `json:"frames_inferred"`
	Batches         uint64  `json:"batches"`
	InferMeanMS     float64 `json:"infer_mean_ms"` // per inference
	InferMaxMS      float64 `json:"infer_max_ms"`
	LastSeq         uint64  `json:"last_seq"`
	QueueLen        int     `json:"queue_len"` // 1 while a frame waits for inference
	ActiveLinks     int     `json:"active_links"`
	EstimatesServed uint64  `json:"estimates_served"`
	AgeP50MS        float64 `json:"age_p50_ms"`               // served-age percentiles over the
	AgeP99MS        float64 `json:"age_p99_ms"`               // recent window — the tail signal
	InferMode       string  `json:"inference_mode,omitempty"` // float32, or untrained
	Err             string  `json:"err,omitempty"`
}

func serveFetch(w http.ResponseWriter, s *Service, linkID string) {
	e, err := s.Fetch(linkID)
	if err != nil {
		httpError(w, statusFor(err), "%v", err)
		return
	}
	writeEstimate(w, s, linkID, e, 0, false)
}

// Per-request scratch, pooled: the POST body buffer above, and below the
// response encode buffer plus the [[re,im],...] CIR pair slice. The hot
// /estimate path allocates only what it must hand off (the decoded image
// becomes the pending frame, so its buffer cannot be reused) — pinned
// by BenchmarkHTTPEstimate{Post,Get} with -benchmem.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

type respScratch struct {
	buf   bytes.Buffer
	pairs [][2]float64
}

var respPool = sync.Pool{New: func() any { return new(respScratch) }}

func writeEstimate(w http.ResponseWriter, s *Service, linkID string, e Estimate, submitted uint64, dropped bool) {
	rs := respPool.Get().(*respScratch)
	defer func() { rs.buf.Reset(); respPool.Put(rs) }()
	rs.pairs = appendCIRPairs(rs.pairs[:0], e.CIR)
	encodeJSON(&rs.buf, estimateResponse{
		Link: linkID, FrameSeq: e.FrameSeq, SubmittedSeq: submitted, DroppedOldest: dropped,
		CIR: rs.pairs, AgeMS: ms(e.AgeAt(s.clock())), InferenceMS: ms(e.Inference),
	})
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(rs.buf.Bytes())
}

func appendCIRPairs(dst [][2]float64, cir []complex128) [][2]float64 {
	for _, c := range cir {
		dst = append(dst, [2]float64{real(c), imag(c)})
	}
	return dst
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func encodeJSON(buf *bytes.Buffer, v any) {
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeJSON(w http.ResponseWriter, v any) {
	rs := respPool.Get().(*respScratch)
	defer func() { rs.buf.Reset(); respPool.Put(rs) }()
	encodeJSON(&rs.buf, v)
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(rs.buf.Bytes())
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
