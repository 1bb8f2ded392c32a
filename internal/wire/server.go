package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// The Server's fixed bounds.
const (
	// maxInflight bounds concurrently-handled requests across every
	// connection; a request arriving beyond the bound is answered
	// StatusOverloaded immediately (shed, never queued) — bounded
	// in-flight backpressure is what keeps an overloaded backend
	// degrading by shedding instead of by latency collapse.
	maxInflight = 256
	// prefaceTimeout bounds the connection handshake.
	prefaceTimeout = 5 * time.Second
)

// ServerConfig parameterizes a wire Server. Its zero value runs the
// fixed bounds above; it has no exported fields.
type ServerConfig struct {
	// maxInflight, when positive (tests only), replaces the in-flight
	// bound.
	maxInflight int
}

// Server speaks the wire protocol on accepted connections and forwards
// requests to a Handler. One goroutine reads each connection; each
// request is handled on its own goroutine (a Submit blocks until its
// estimate publishes), bounded by the server-wide in-flight cap.
type Server struct {
	h Handler

	inflight chan struct{}
	sheds    atomic.Uint64

	mu     sync.Mutex
	lns    map[net.Listener]struct{}
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer builds a Server fronting h.
func NewServer(h Handler, cfg ServerConfig) *Server {
	inflight := maxInflight
	if cfg.maxInflight > 0 {
		inflight = cfg.maxInflight
	}
	return &Server{
		h:        h,
		inflight: make(chan struct{}, inflight),
		lns:      map[net.Listener]struct{}{},
		conns:    map[net.Conn]struct{}{},
	}
}

// Inflight reports the number of requests currently being handled.
func (s *Server) Inflight() int { return len(s.inflight) }

// Sheds reports how many requests were answered StatusOverloaded.
func (s *Server) Sheds() uint64 { return s.sheds.Load() }

// Listen starts serving on addr (":0" picks a port) and returns the
// bound address. Serving runs on background goroutines until Close.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = s.Serve(ln)
	}()
	return ln.Addr(), nil
}

// Serve accepts connections on ln until Close (or a permanent accept
// failure) and handles each on its own goroutine.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("wire: server closed")
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			delete(s.lns, ln)
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops listeners, closes every connection and waits for all
// handler goroutines to finish. In-flight Submits unblock as soon as
// the Handler returns (close the underlying serve.Service first to cut
// their waits short).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	for ln := range s.lns {
		ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// connWriter serializes response frames onto one connection, reusing a
// single encode buffer — steady-state writes allocate nothing.
type connWriter struct {
	mu  sync.Mutex
	c   net.Conn
	buf []byte
}

func (w *connWriter) send(typ byte, status Status, reqID uint64, enc func([]byte) []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	b := beginFrame(w.buf, typ, status, reqID)
	if enc != nil {
		b = enc(b)
	}
	b = finishFrame(b)
	w.buf = b
	_, _ = w.c.Write(b) // a failed write surfaces as the reader's error
}

func (w *connWriter) sendError(reqID uint64, code Status, msg string) {
	w.send(TypeError, code, reqID, func(b []byte) []byte { return appendErrorPayload(b, msg) })
}

func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(prefaceTimeout))
	if err := readPreface(conn); err != nil {
		return
	}
	if err := writePreface(conn); err != nil {
		return
	}
	_ = conn.SetDeadline(time.Time{})

	br := bufio.NewReaderSize(conn, 64<<10)
	w := &connWriter{c: conn}
	var reqWG sync.WaitGroup
	defer reqWG.Wait() // all in-flight replies written (or conn dead) before return
	var buf []byte
	for {
		hdr, payload, nbuf, err := readFrame(br, buf)
		buf = nbuf
		if err != nil {
			// io.EOF between frames is a clean close; anything else —
			// truncation, CRC mismatch, oversize — drops the conn (a
			// byte stream with a broken frame boundary cannot recover).
			return
		}
		if hdr.Status != 0 {
			w.sendError(hdr.ReqID, StatusBadRequest, "nonzero status on a request")
			continue
		}
		// Parse fully before dispatch: payload aliases the read buffer,
		// which the next loop iteration overwrites.
		switch hdr.Type {
		case TypeSubmit:
			req := &SubmitRequest{}
			if perr := parseSubmitPayload(payload, req); perr != nil {
				w.sendError(hdr.ReqID, StatusBadRequest, perr.Error())
				continue
			}
			s.dispatch(w, &reqWG, hdr.ReqID, func(reply *EstimateReply) error {
				return s.h.Submit(req.Link, req.Image, req.Wait, reply)
			})
		case TypeFetch:
			link, perr := parseLinkPayload(payload)
			if perr != nil {
				w.sendError(hdr.ReqID, StatusBadRequest, perr.Error())
				continue
			}
			s.dispatch(w, &reqWG, hdr.ReqID, func(reply *EstimateReply) error {
				return s.h.Fetch(link, reply)
			})
		case TypeStats:
			link, perr := parseLinkPayload(payload)
			if perr != nil {
				w.sendError(hdr.ReqID, StatusBadRequest, perr.Error())
				continue
			}
			s.dispatchWith(w, &reqWG, hdr.ReqID, func(w *connWriter, reqID uint64) {
				stats, err := s.h.Stats(link)
				if err != nil {
					w.sendError(reqID, CodeOf(err), err.Error())
					return
				}
				w.send(TypeStatsReply, StatusOK, reqID, func(b []byte) []byte {
					return appendStatsReplyPayload(b, stats)
				})
			})
		case TypeCloseLink:
			link, perr := parseLinkPayload(payload)
			if perr != nil {
				w.sendError(hdr.ReqID, StatusBadRequest, perr.Error())
				continue
			}
			s.dispatchWith(w, &reqWG, hdr.ReqID, func(w *connWriter, reqID uint64) {
				if err := s.h.CloseLink(link); err != nil {
					w.sendError(reqID, CodeOf(err), err.Error())
					return
				}
				w.send(TypeCloseLinkReply, StatusOK, reqID, nil)
			})
		case TypeMetrics:
			if len(payload) != 0 {
				w.sendError(hdr.ReqID, StatusBadRequest, "unexpected metrics payload")
				continue
			}
			s.dispatchWith(w, &reqWG, hdr.ReqID, func(w *connWriter, reqID uint64) {
				m, err := s.h.Metrics()
				if err != nil {
					w.sendError(reqID, CodeOf(err), err.Error())
					return
				}
				w.send(TypeMetricsReply, StatusOK, reqID, func(b []byte) []byte {
					return appendMetricsReplyPayload(b, &m)
				})
			})
		case TypePing:
			if len(payload) != 0 {
				w.sendError(hdr.ReqID, StatusBadRequest, "unexpected ping payload")
				continue
			}
			s.dispatchWith(w, &reqWG, hdr.ReqID, func(w *connWriter, reqID uint64) {
				pong, err := s.h.Ping()
				if err != nil {
					w.sendError(reqID, CodeOf(err), err.Error())
					return
				}
				pong.Inflight = len(s.inflight)
				w.send(TypePong, StatusOK, reqID, func(b []byte) []byte {
					return appendPongPayload(b, &pong)
				})
			})
		default:
			w.sendError(hdr.ReqID, StatusBadRequest, fmt.Sprintf("unknown message type 0x%02x", hdr.Type))
		}
	}
}

// dispatch runs an estimate-producing handler under the in-flight
// bound, shedding immediately when the bound is hit.
func (s *Server) dispatch(w *connWriter, wg *sync.WaitGroup, reqID uint64, run func(*EstimateReply) error) {
	s.dispatchWith(w, wg, reqID, func(w *connWriter, reqID uint64) {
		var reply EstimateReply
		if err := run(&reply); err != nil {
			w.sendError(reqID, CodeOf(err), err.Error())
			return
		}
		w.send(TypeEstimate, StatusOK, reqID, func(b []byte) []byte {
			return appendEstimatePayload(b, &reply)
		})
	})
}

func (s *Server) dispatchWith(w *connWriter, wg *sync.WaitGroup, reqID uint64, run func(*connWriter, uint64)) {
	select {
	case s.inflight <- struct{}{}:
	default:
		s.sheds.Add(1)
		w.sendError(reqID, StatusOverloaded, fmt.Sprintf("server at max in-flight requests (%d)", cap(s.inflight)))
		return
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { <-s.inflight }()
		run(w, reqID)
	}()
}
