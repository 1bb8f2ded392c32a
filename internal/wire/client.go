package wire

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"
)

// The Client's fixed timeouts.
const (
	// dialTimeout bounds connection + preface.
	dialTimeout = 5 * time.Second
	// callTimeout bounds fetch/stats/metrics/ping round trips and is the
	// grace added on top of a Submit's wait budget.
	callTimeout = 5 * time.Second
)

// ClientConfig parameterizes a wire Client. It has no fields: every
// client runs the fixed timeouts above and the maxFrame bound.
type ClientConfig struct{}

// Client is one multiplexed wire connection: any number of goroutines
// (one per link session, typically many) issue requests concurrently;
// request ids correlate the pipelined responses. All methods are safe
// for concurrent use. A transport failure kills the connection and
// fails every pending call; the owner (shard pool, load generator)
// redials.
type Client struct {
	conn net.Conn

	wmu  sync.Mutex
	wbuf []byte

	pmu     sync.Mutex
	pending map[uint64]*call
	nextID  uint64
	err     error // terminal transport error, set once
	done    chan struct{}
}

// call is one in-flight request: exactly one response decode target is
// non-nil (or ack is set), matching the expected reply type.
type call struct {
	ch      chan error
	est     *EstimateReply
	stats   *[]LinkStats
	metrics *MetricsReply
	pong    *PongReply
	ack     bool // expects an empty TypeCloseLinkReply
}

// Dial connects to a wire server and performs the preface handshake.
func Dial(addr string, _ ClientConfig) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	_ = conn.SetDeadline(time.Now().Add(dialTimeout))
	if err := writePreface(conn); err != nil {
		conn.Close()
		return nil, err
	}
	if err := readPreface(conn); err != nil {
		conn.Close()
		return nil, err
	}
	_ = conn.SetDeadline(time.Time{})
	c := &Client{
		conn:    conn,
		pending: map[uint64]*call{},
		done:    make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

// Err returns the terminal transport error, or nil while the
// connection is healthy.
func (c *Client) Err() error {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return c.err
}

// Close tears down the connection; pending calls fail.
func (c *Client) Close() error {
	c.fail(fmt.Errorf("wire: client closed"))
	return nil
}

// fail terminates the client once: records err, closes the conn, fails
// every pending call.
func (c *Client) fail(err error) {
	c.pmu.Lock()
	if c.err != nil {
		c.pmu.Unlock()
		return
	}
	c.err = err
	pending := c.pending
	c.pending = map[uint64]*call{}
	close(c.done)
	c.pmu.Unlock()
	c.conn.Close()
	for _, cl := range pending {
		cl.ch <- err
	}
}

func (c *Client) readLoop() {
	br := bufio.NewReaderSize(c.conn, 64<<10)
	var buf []byte
	for {
		hdr, payload, nbuf, err := readFrame(br, buf)
		buf = nbuf
		if err != nil {
			c.fail(fmt.Errorf("wire: connection lost: %w", err))
			return
		}
		c.pmu.Lock()
		cl := c.pending[hdr.ReqID]
		delete(c.pending, hdr.ReqID)
		c.pmu.Unlock()
		if cl == nil {
			continue // reply for a timed-out call; drop
		}
		cl.ch <- c.decodeReply(hdr, payload, cl)
	}
}

// decodeReply decodes a response frame into the call's target struct.
func (c *Client) decodeReply(hdr frameHeader, payload []byte, cl *call) error {
	switch hdr.Type {
	case TypeError:
		msg, err := parseErrorPayload(payload)
		if err != nil {
			return err
		}
		return &StatusError{Code: hdr.Status, Msg: msg}
	case TypeEstimate:
		if cl.est == nil {
			return fmt.Errorf("wire: unexpected estimate reply")
		}
		return parseEstimatePayload(payload, cl.est)
	case TypeStatsReply:
		if cl.stats == nil {
			return fmt.Errorf("wire: unexpected stats reply")
		}
		var err error
		*cl.stats, err = parseStatsReplyPayload(payload, (*cl.stats)[:0])
		return err
	case TypeMetricsReply:
		if cl.metrics == nil {
			return fmt.Errorf("wire: unexpected metrics reply")
		}
		return parseMetricsReplyPayload(payload, cl.metrics)
	case TypePong:
		if cl.pong == nil {
			return fmt.Errorf("wire: unexpected pong reply")
		}
		return parsePongPayload(payload, cl.pong)
	case TypeCloseLinkReply:
		if !cl.ack {
			return fmt.Errorf("wire: unexpected close-link reply")
		}
		if len(payload) != 0 {
			return fmt.Errorf("wire: close-link reply carries %d payload bytes", len(payload))
		}
		return nil
	}
	return fmt.Errorf("wire: unknown reply type 0x%02x", hdr.Type)
}

// roundTrip sends one request frame and waits for its reply (or the
// timeout, or connection death).
func (c *Client) roundTrip(typ byte, enc func([]byte) []byte, cl *call, timeout time.Duration) error {
	cl.ch = make(chan error, 1)
	c.pmu.Lock()
	if c.err != nil {
		err := c.err
		c.pmu.Unlock()
		return err
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = cl
	c.pmu.Unlock()

	c.wmu.Lock()
	b := beginFrame(c.wbuf, typ, StatusOK, id)
	if enc != nil {
		b = enc(b)
	}
	b = finishFrame(b)
	c.wbuf = b
	_, werr := c.conn.Write(b)
	c.wmu.Unlock()
	if werr != nil {
		c.forget(id)
		c.fail(fmt.Errorf("wire: write failed: %w", werr))
		return c.Err()
	}

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case err := <-cl.ch:
		return err
	case <-timer.C:
		c.forget(id)
		return Errf(StatusNotReady, "no reply for request %d within %v", id, timeout)
	}
}

func (c *Client) forget(id uint64) {
	c.pmu.Lock()
	delete(c.pending, id)
	c.pmu.Unlock()
}

// Submit sends a frame for a link session and fills reply with the
// resulting estimate. wait is the server-side estimate wait (0 = server
// default, capped at MaxWait); the client waits wait+callTimeout for
// the reply. reply's CIR capacity is reused across calls.
func (c *Client) Submit(link string, img []float32, wait time.Duration, reply *EstimateReply) error {
	if wait < 0 {
		wait = 0
	}
	if wait > MaxWait {
		wait = MaxWait
	}
	cl := &call{est: reply}
	return c.roundTrip(TypeSubmit, func(b []byte) []byte {
		return appendSubmitPayload(b, link, img, wait)
	}, cl, wait+callTimeout)
}

// SubmitNoWait sends a frame without waiting for its estimate — the
// camera-feeder path. Only SubmittedSeq/DroppedOldest come back.
func (c *Client) SubmitNoWait(link string, img []float32, reply *EstimateReply) error {
	cl := &call{est: reply}
	return c.roundTrip(TypeSubmit, func(b []byte) []byte {
		return appendSubmitPayload(b, link, img, -1)
	}, cl, callTimeout)
}

// Fetch fills reply with the freshest estimate for a link session.
func (c *Client) Fetch(link string, reply *EstimateReply) error {
	cl := &call{est: reply}
	return c.roundTrip(TypeFetch, func(b []byte) []byte {
		return appendLinkPayload(b, link)
	}, cl, callTimeout)
}

// Stats returns session statistics: the named link's, or every open
// session when link is empty. dst capacity is reused.
func (c *Client) Stats(link string, dst []LinkStats) ([]LinkStats, error) {
	cl := &call{stats: &dst}
	err := c.roundTrip(TypeStats, func(b []byte) []byte {
		return appendLinkPayload(b, link)
	}, cl, callTimeout)
	return dst, err
}

// CloseLink closes a link session on the server, freeing its slot under
// the session cap. A link that is not open fails with StatusNoEstimate.
func (c *Client) CloseLink(link string) error {
	return c.roundTrip(TypeCloseLink, func(b []byte) []byte {
		return appendLinkPayload(b, link)
	}, &call{ack: true}, callTimeout)
}

// Metrics fetches the service counter snapshot.
func (c *Client) Metrics() (MetricsReply, error) {
	var m MetricsReply
	cl := &call{metrics: &m}
	err := c.roundTrip(TypeMetrics, nil, cl, callTimeout)
	return m, err
}

// Ping probes liveness and load within the given budget (0 = callTimeout).
func (c *Client) Ping(timeout time.Duration) (PongReply, error) {
	if timeout <= 0 {
		timeout = callTimeout
	}
	var p PongReply
	cl := &call{pong: &p}
	err := c.roundTrip(TypePing, nil, cl, timeout)
	return p, err
}
