package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// NewHTTPHandler serves a Handler over HTTP/JSON (stdlib only):
//
//	POST   /estimate   {"link":"a","image":[...]}  submit a frame, wait for
//	                   its (or a newer) estimate and return it; wait_ms<0
//	                   submits without waiting (fire-and-forget feeders),
//	                   wait_ms above MaxWait is clamped to it; no image
//	                   serves the freshest estimate, like GET
//	GET    /estimate?link=a                        freshest estimate for a link
//	GET    /links                                  per-session statistics
//	DELETE /links?id=a                             close a session
//	GET    /metricsz                               service counters
//
// It is a codec only: every request becomes one Handler call — the same
// Submit/Fetch/Stats/CloseLink/Metrics the binary Server dispatches —
// and every Handler error reaches its HTTP code through Status.httpCode,
// so a backend and a router in front of backends answer JSON with the
// verdicts they give over the wire. CIRs travel as [[re,im], ...] pairs
// and durations as milliseconds.
//
// maxPixels bounds POST bodies before decoding, so an anonymous POST
// cannot make the server buffer an arbitrarily long image array: ~32
// bytes per JSON-encoded pixel, or 4 MiB when maxPixels is 0 (413
// beyond it).
func NewHTTPHandler(h Handler, maxPixels int) http.Handler {
	maxBody := int64(4 << 20)
	if maxPixels > 0 {
		maxBody = int64(maxPixels)*32 + 4096
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /estimate", func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxBody)
		body := bodyPool.Get().(*bytes.Buffer)
		defer func() { body.Reset(); bodyPool.Put(body) }()
		if _, err := body.ReadFrom(r.Body); err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
				return
			}
			writeError(w, Errf(StatusBadRequest, "reading body: %v", err))
			return
		}
		// Decode the image straight into its final size: it becomes the
		// pending frame, so it is the one buffer a POST must allocate.
		req := estimateRequest{Image: make([]float32, 0, maxPixels)}
		if err := json.Unmarshal(body.Bytes(), &req); err != nil {
			writeError(w, Errf(StatusBadRequest, "bad JSON: %v", err))
			return
		}
		if req.Link == "" {
			writeError(w, Errf(StatusBadRequest, "missing link id"))
			return
		}
		if len(req.Image) == 0 {
			serveFetch(w, h, req.Link)
			return
		}
		rs := getScratch()
		defer rs.put()
		wait := waitFromMS(req.WaitMS)
		if err := h.Submit(req.Link, req.Image, wait, &rs.reply); err != nil {
			writeError(w, err)
			return
		}
		if wait < 0 {
			rs.write(w, submitResponse{Link: req.Link, SubmittedSeq: rs.reply.SubmittedSeq, DroppedOldest: rs.reply.DroppedOldest})
			return
		}
		rs.writeEstimate(w, req.Link)
	})
	mux.HandleFunc("GET /estimate", func(w http.ResponseWriter, r *http.Request) {
		id := r.URL.Query().Get("link")
		if id == "" {
			writeError(w, Errf(StatusBadRequest, "missing ?link="))
			return
		}
		serveFetch(w, h, id)
	})
	mux.HandleFunc("DELETE /links", func(w http.ResponseWriter, r *http.Request) {
		id := r.URL.Query().Get("id")
		if id == "" {
			writeError(w, Errf(StatusBadRequest, "missing ?id="))
			return
		}
		if err := h.CloseLink(id); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, map[string]string{"closed": id})
	})
	mux.HandleFunc("GET /links", func(w http.ResponseWriter, r *http.Request) {
		stats, err := h.Stats("")
		if err != nil {
			writeError(w, err)
			return
		}
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
		m, err := h.Metrics()
		if err != nil {
			writeError(w, err)
			return
		}
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

func serveFetch(w http.ResponseWriter, h Handler, linkID string) {
	rs := getScratch()
	defer rs.put()
	if err := h.Fetch(linkID, &rs.reply); err != nil {
		writeError(w, err)
		return
	}
	rs.writeEstimate(w, linkID)
}

// Per-request scratch, pooled: the POST body buffer above, and below the
// handler's reply (its CIR capacity), the response encode buffer and the
// [[re,im],...] CIR pair slice. The hot /estimate path allocates only
// what it must hand off (the decoded image becomes the pending frame, so
// its buffer cannot be reused) — pinned by
// BenchmarkHTTPEstimate{Post,Get} with -benchmem.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

type respScratch struct {
	reply EstimateReply
	buf   bytes.Buffer
	pairs [][2]float64
}

var respPool = sync.Pool{New: func() any { return new(respScratch) }}

// getScratch takes a scratch from the pool with an empty reply that
// keeps its CIR capacity.
func getScratch() *respScratch {
	rs := respPool.Get().(*respScratch)
	rs.reply = EstimateReply{CIR: rs.reply.CIR[:0]}
	return rs
}

func (rs *respScratch) put() {
	rs.buf.Reset()
	respPool.Put(rs)
}

// writeEstimate writes rs.reply as the estimate served to linkID. The
// taps cross the Handler as complex64, so JSON clients get the float32
// precision binary clients get, the precision the network computes at.
func (rs *respScratch) writeEstimate(w http.ResponseWriter, linkID string) {
	rs.pairs = rs.pairs[:0]
	for _, c := range rs.reply.CIR {
		rs.pairs = append(rs.pairs, [2]float64{float64(real(c)), float64(imag(c))})
	}
	rs.write(w, estimateResponse{
		Link: linkID, FrameSeq: rs.reply.FrameSeq,
		SubmittedSeq: rs.reply.SubmittedSeq, DroppedOldest: rs.reply.DroppedOldest,
		CIR: rs.pairs, AgeMS: ms(rs.reply.Age), InferenceMS: ms(rs.reply.Inference),
	})
}

func (rs *respScratch) write(w http.ResponseWriter, v any) {
	enc := json.NewEncoder(&rs.buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(rs.buf.Bytes())
}

func writeJSON(w http.ResponseWriter, v any) {
	rs := getScratch()
	defer rs.put()
	rs.write(w, v)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// writeError answers a Handler error: a *StatusError with its code's
// HTTP status and its bare message, anything else with 500.
func writeError(w http.ResponseWriter, err error) {
	var se *StatusError
	if !errors.As(err, &se) {
		httpError(w, StatusInternal.httpCode(), err.Error())
		return
	}
	httpError(w, se.Code.httpCode(), se.Msg)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
