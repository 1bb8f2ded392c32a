// Package wire is the serving cluster's binary protocol: a compact,
// length-prefixed, CRC-32C-checksummed message format that replaces
// per-request HTTP/JSON between load generators, the shard router and
// vvd-serve backends.
//
// Why a second protocol: one JSON-encoded 4500-pixel depth frame is
// ~40 KiB of text to parse per request; the same frame on the wire is
// 4 bytes a pixel, decoded by one bounds check and one memcpy. At
// cluster rates the JSON codec *is* the workload (EXPERIMENTS.md pins
// the gap), so the binary layer is what makes a multi-backend tier
// worth building.
//
// Connection model. One TCP connection carries any number of link
// sessions concurrently: every request frame has a caller-chosen
// request id, responses come back whenever they are ready (possibly out
// of order), and the Client correlates them — many links per
// connection, full pipelining, no head-of-line blocking on the slow
// submit path. The Server bounds concurrently-handled requests
// (ServerConfig.MaxInflight) and sheds beyond the bound with
// StatusOverloaded instead of queueing — the 503-equivalent that keeps
// an overloaded backend shedding rather than collapsing.
//
// Frame layout (all integers little-endian, mirroring the campaign
// store codec):
//
//	preface, once per connection and direction:
//	  u32  magic "VVDW" (0x57445656) + u32 protocol version
//	message, any number, either direction:
//	  u32  length L of everything after this field (min 16)
//	  u8   message type        u8  status (responses; 0 on requests)
//	  u16  reserved (0)        u64 request id
//	  ...  payload (type-specific, see messages.go)
//	  u32  CRC-32C over the L-4 bytes starting at the type byte
//
// Every float32 slice (image, CIR) travels as a u32 count plus raw
// little-endian payload; on little-endian hosts encode and decode are
// single memcpys against the typed slice's own backing array. Length
// fields are validated against the remaining frame before any
// allocation, so a hostile length claim cannot over-allocate
// (FuzzWireDecode pins this).
package wire

import (
	"errors"
	"fmt"
	"time"

	"vvd/internal/serve"
)

// Magic opens every connection in both directions; the bytes on the
// wire are 'V','V','D','W'.
const Magic = uint32(0x57445656)

// Version is the protocol revision spoken by this build. A peer with a
// different version is rejected at the preface.
const Version = uint32(3)

// MaxWait caps the server-side estimate wait a Submit may request; a
// longer wait is clamped, bounding how long a hostile client can park
// an in-flight slot. It is the service-wide cap every transport shares.
const MaxWait = serve.MaxWait

// Message types. Requests flow client→server, replies server→client.
const (
	TypeSubmit         = 0x01 // frame submission (flag bit 0: fire-and-forget)
	TypeFetch          = 0x02 // freshest estimate for a link
	TypeEstimate       = 0x03 // reply to Submit/Fetch
	TypeStats          = 0x04 // link statistics (empty link id = all links)
	TypeStatsReply     = 0x05
	TypeMetrics        = 0x06 // service counters
	TypeMetricsReply   = 0x07
	TypePing           = 0x08 // health probe
	TypePong           = 0x09 // reply with load signals
	TypeError          = 0x0A // any request can fail; status + message
	TypeCloseLink      = 0x0B // close a link session, freeing its slot
	TypeCloseLinkReply = 0x0C // empty acknowledgement
)

// Status is the response status carried in the frame header. StatusOK
// on success; on failure the response is a TypeError frame whose status
// says why, mirroring the HTTP layer's code mapping.
type Status uint8

const (
	StatusOK           Status = 0
	StatusBadRequest   Status = 1 // malformed frame or request (HTTP 400)
	StatusNoEstimate   Status = 2 // nothing published yet (HTTP 404)
	StatusNotReady     Status = 3 // estimate missed the wait budget (HTTP 504)
	StatusOverloaded   Status = 4 // shed by an in-flight bound (HTTP 503 + Retry-After)
	StatusUnavailable  Status = 5 // service closed / backend unreachable (HTTP 503)
	StatusTooManyLinks Status = 6 // session cap reached (HTTP 429)
	StatusInternal     Status = 7 // handler failure (HTTP 500)
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusBadRequest:
		return "bad-request"
	case StatusNoEstimate:
		return "no-estimate"
	case StatusNotReady:
		return "not-ready"
	case StatusOverloaded:
		return "overloaded"
	case StatusUnavailable:
		return "unavailable"
	case StatusTooManyLinks:
		return "too-many-links"
	case StatusInternal:
		return "internal"
	}
	return fmt.Sprintf("status-%d", uint8(s))
}

// StatusError is the protocol-level error: a status code plus a
// human-readable message. The Client returns it for every non-OK reply;
// the shard router forwards it across hops unchanged, so the end client
// sees the backend's own verdict (an overloaded shard reads as
// StatusOverloaded end to end).
type StatusError struct {
	Code Status
	Msg  string
}

func (e *StatusError) Error() string { return fmt.Sprintf("wire: %s: %s", e.Code, e.Msg) }

// Errf builds a StatusError.
func Errf(code Status, format string, args ...any) error {
	return &StatusError{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// CodeOf extracts the Status of an error: the StatusError code if it is
// one, StatusInternal otherwise.
func CodeOf(err error) Status {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code
	}
	return StatusInternal
}

// Handler is the service a wire Server fronts. NewServiceHandler adapts
// a serve.Service; the shard router implements Handler itself, which is
// what lets the router speak the same protocol downstream and upstream.
//
// Methods write their result into caller-owned reply structs (reusing
// slice capacity) and return nil, or return an error — a *StatusError
// to choose the response status, anything else maps to StatusInternal.
type Handler interface {
	// Submit ingests a frame for a link session and, when wait >= 0,
	// blocks until the frame's (or a newer) estimate is published and
	// fills reply with it. wait == 0 means the server default; wait < 0
	// is fire-and-forget: only SubmittedSeq/DroppedOldest are filled.
	Submit(link string, img []float32, wait time.Duration, reply *EstimateReply) error
	// Fetch fills reply with the freshest published estimate for a link.
	Fetch(link string, reply *EstimateReply) error
	// Stats returns per-session statistics: one entry for the given
	// link, or every open session (sorted by id) when link is empty.
	Stats(link string) ([]LinkStats, error)
	// CloseLink closes a link session, freeing its slot under the
	// session cap. A link that is not open fails with StatusNoEstimate.
	CloseLink(link string) error
	// Metrics returns the service counter snapshot.
	Metrics() (MetricsReply, error)
	// Ping returns load signals for health checks. The wire server
	// overwrites Inflight with its own in-flight request count.
	Ping() (PongReply, error)
}

// EstimateReply is one served estimate (TypeEstimate payload). CIR is
// complex64: the inference engine computes float32 (PR 6), so nothing
// real is lost, and a 11-tap estimate is 88 payload bytes.
type EstimateReply struct {
	FrameSeq      uint64
	SubmittedSeq  uint64
	DroppedOldest bool
	Age           time.Duration // age of the served estimate at reply time
	Inference     time.Duration
	CIR           []complex64
}

// LinkStats is one session's statistics (TypeStatsReply entry).
type LinkStats = serve.LinkStats

// MetricsReply is the service counter snapshot (TypeMetricsReply). The
// router aggregates one per shard.
type MetricsReply = serve.Metrics

// PongReply carries the load signals a health checker reads (TypePong).
type PongReply struct {
	QueueLen        int    // 1 while a frame waits for inference
	Inflight        int    // requests currently being handled
	ActiveLinks     int    // open sessions
	EstimatesServed uint64 // monotone progress signal
}
