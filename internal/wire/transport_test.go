package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"vvd/internal/serve"
)

// verifyNoLeaks mirrors the serve package's leak check: snapshot the
// goroutine count, poll back to it after every cleanup ran. Server.Close
// and Client.Close must unwind every accept loop, per-connection reader
// and per-request handler they started.
func verifyNoLeaks(t *testing.T) {
	t.Helper()
	baseline := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(10 * time.Second)
		for {
			if runtime.NumGoroutine() <= baseline {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d at baseline, %d after cleanup; stacks:\n%s",
			baseline, runtime.NumGoroutine(), buf[:n])
	})
}

const testPixels = 64

// stubCIR recomputes the StubEstimator's deterministic CIR for one
// image, in the complex64 domain the wire carries.
func stubCIR(img []float32, taps int) []complex64 {
	var sum float64
	for j, p := range img {
		sum += float64(p) * float64(j%7+1)
	}
	out := make([]complex64, taps)
	for k := range out {
		out[k] = complex64(complex(sum+float64(k), float64(len(img))-float64(2*k)))
	}
	return out
}

func testImage(seed int) []float32 {
	img := make([]float32, testPixels)
	for i := range img {
		img[i] = float32(seed*31+i) * 0.125
	}
	return img
}

type wireFixture struct {
	svc    *serve.Service
	server *Server
	addr   string
	client *Client
}

// newWireFixture stands up a full stack — serve.Service on a
// StubEstimator, wire Server, wire Client over loopback — and tears it
// down in dependency order on cleanup.
func newWireFixture(t *testing.T, scfg serve.Config, wcfg ServerConfig) *wireFixture {
	t.Helper()
	verifyNoLeaks(t)
	if scfg.Estimator == nil {
		scfg.Estimator = &serve.StubEstimator{}
	}
	if scfg.InputSize == 0 {
		scfg.InputSize = testPixels
	}
	svc, err := serve.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer(NewServiceHandler(svc), wcfg)
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		svc.Close()
		t.Fatal(err)
	}
	client, err := Dial(addr.String(), ClientConfig{})
	if err != nil {
		svc.Close()
		server.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		client.Close()
		svc.Close() // first: unblocks in-flight Submit waits
		server.Close()
	})
	return &wireFixture{svc: svc, server: server, addr: addr.String(), client: client}
}

func TestSubmitRoundTrip(t *testing.T) {
	fx := newWireFixture(t, serve.Config{}, ServerConfig{})
	img := testImage(1)
	var reply EstimateReply
	if err := fx.client.Submit("link-a", img, 0, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.SubmittedSeq != 1 {
		t.Fatalf("SubmittedSeq = %d, want 1", reply.SubmittedSeq)
	}
	if reply.FrameSeq < reply.SubmittedSeq {
		t.Fatalf("FrameSeq %d older than submitted %d", reply.FrameSeq, reply.SubmittedSeq)
	}
	want := stubCIR(img, 11)
	if len(reply.CIR) != len(want) {
		t.Fatalf("CIR taps = %d, want %d", len(reply.CIR), len(want))
	}
	for i := range want {
		if reply.CIR[i] != want[i] { //vvdlint:bitexact -- wire transport must not perturb estimate bytes
			t.Fatalf("tap %d = %v, want %v", i, reply.CIR[i], want[i])
		}
	}
	if reply.Age < 0 {
		t.Fatalf("negative age %v", reply.Age)
	}

	// The same estimate is now fetchable.
	var fetched EstimateReply
	if err := fx.client.Fetch("link-a", &fetched); err != nil {
		t.Fatal(err)
	}
	if fetched.FrameSeq != reply.FrameSeq {
		t.Fatalf("fetched FrameSeq = %d, want %d", fetched.FrameSeq, reply.FrameSeq)
	}
	for i := range want {
		if fetched.CIR[i] != want[i] { //vvdlint:bitexact -- wire transport must not perturb estimate bytes
			t.Fatalf("fetched tap %d = %v, want %v", i, fetched.CIR[i], want[i])
		}
	}
}

func TestSubmitNoWait(t *testing.T) {
	fx := newWireFixture(t, serve.Config{}, ServerConfig{})
	var reply EstimateReply
	if err := fx.client.SubmitNoWait("feeder", testImage(2), &reply); err != nil {
		t.Fatal(err)
	}
	if reply.SubmittedSeq != 1 || len(reply.CIR) != 0 {
		t.Fatalf("reply = %+v, want bare submission receipt", reply)
	}
	// The estimate still materializes; poll Fetch until it does.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var got EstimateReply
		err := fx.client.Fetch("feeder", &got)
		if err == nil {
			if got.FrameSeq != 1 {
				t.Fatalf("FrameSeq = %d, want 1", got.FrameSeq)
			}
			return
		}
		if CodeOf(err) != StatusNoEstimate {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("estimate never published")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestStatsMetricsPing(t *testing.T) {
	fx := newWireFixture(t, serve.Config{}, ServerConfig{})
	var reply EstimateReply
	for _, link := range []string{"b-link", "a-link"} {
		if err := fx.client.Submit(link, testImage(3), 0, &reply); err != nil {
			t.Fatal(err)
		}
	}

	stats, err := fx.client.Stats("", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 || stats[0].ID != "a-link" || stats[1].ID != "b-link" {
		t.Fatalf("stats = %+v, want both links sorted by id", stats)
	}
	for _, st := range stats {
		if st.Served != 1 {
			t.Fatalf("link %s served = %d, want 1", st.ID, st.Served)
		}
	}
	one, err := fx.client.Stats("a-link", stats)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0].ID != "a-link" {
		t.Fatalf("filtered stats = %+v", one)
	}
	if _, err := fx.client.Stats("nope", nil); CodeOf(err) != StatusNoEstimate {
		t.Fatalf("unknown link stats err = %v, want StatusNoEstimate", err)
	}

	m, err := fx.client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.FramesSubmitted != 2 || m.EstimatesServed != 2 || m.ActiveLinks != 2 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.InferMode != "stub" {
		t.Fatalf("InferMode = %q, want stub", m.InferMode)
	}
	if m.AgeP50 <= 0 || m.AgeP99 < m.AgeP50 {
		t.Fatalf("age percentiles p50=%v p99=%v", m.AgeP50, m.AgeP99)
	}

	pong, err := fx.client.Ping(0)
	if err != nil {
		t.Fatal(err)
	}
	if pong.ActiveLinks != 2 || pong.EstimatesServed != 2 {
		t.Fatalf("pong = %+v", pong)
	}
}

func TestErrorStatuses(t *testing.T) {
	fx := newWireFixture(t, serve.Config{MaxLinks: 1}, ServerConfig{})
	var reply EstimateReply

	// Nothing published yet.
	if err := fx.client.Fetch("only", &reply); CodeOf(err) != StatusNoEstimate {
		t.Fatalf("fetch err = %v, want StatusNoEstimate", err)
	}
	// Wrong pixel count is a bad request.
	if err := fx.client.Submit("only", make([]float32, testPixels+1), 0, &reply); CodeOf(err) != StatusBadRequest {
		t.Fatalf("bad-size err = %v, want StatusBadRequest", err)
	}
	// Empty frame is a bad request.
	if err := fx.client.Submit("only", nil, 0, &reply); CodeOf(err) != StatusBadRequest {
		t.Fatalf("empty err = %v, want StatusBadRequest", err)
	}
	// Session cap: second link rejected.
	if err := fx.client.Submit("only", testImage(4), 0, &reply); err != nil {
		t.Fatal(err)
	}
	if err := fx.client.Submit("other", testImage(4), 0, &reply); CodeOf(err) != StatusTooManyLinks {
		t.Fatalf("over-cap err = %v, want StatusTooManyLinks", err)
	}
	// Closing a link that is not open reports it like Stats does.
	if err := fx.client.CloseLink("other"); CodeOf(err) != StatusNoEstimate {
		t.Fatalf("close of an unopened link err = %v, want StatusNoEstimate", err)
	}

	// Every error is a *StatusError with a usable message.
	err := fx.client.Fetch("third", &reply)
	var se *StatusError
	if !errors.As(err, &se) || se.Msg == "" {
		t.Fatalf("err = %#v, want StatusError with message", err)
	}
}

func TestPipelinedConcurrentLinks(t *testing.T) {
	fx := newWireFixture(t, serve.Config{}, ServerConfig{})
	const links = 8
	const perLink = 10
	var wg sync.WaitGroup
	errs := make(chan error, links)
	for l := 0; l < links; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			var reply EstimateReply
			for i := 0; i < perLink; i++ {
				img := testImage(l*1000 + i)
				if err := fx.client.Submit(fmt.Sprintf("link-%d", l), img, 0, &reply); err != nil {
					errs <- fmt.Errorf("link %d frame %d: %w", l, i, err)
					return
				}
				if reply.FrameSeq < reply.SubmittedSeq {
					errs <- fmt.Errorf("link %d: FrameSeq %d < SubmittedSeq %d", l, reply.FrameSeq, reply.SubmittedSeq)
					return
				}
				if len(reply.CIR) != 11 {
					errs <- fmt.Errorf("link %d: %d taps", l, len(reply.CIR))
					return
				}
			}
		}(l)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	m, err := fx.client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.FramesSubmitted != links*perLink {
		t.Fatalf("FramesSubmitted = %d, want %d", m.FramesSubmitted, links*perLink)
	}
	if m.ActiveLinks != links {
		t.Fatalf("ActiveLinks = %d, want %d", m.ActiveLinks, links)
	}
}

func TestOverloadSheds(t *testing.T) {
	// One in-flight slot and a slow estimator: the first Submit parks in
	// the slot, every concurrent request sheds immediately with
	// StatusOverloaded — bounded backpressure, no queueing.
	fx := newWireFixture(t,
		serve.Config{Estimator: &serve.StubEstimator{Latency: 300 * time.Millisecond}},
		ServerConfig{MaxInflight: 1})

	started := make(chan struct{})
	firstErr := make(chan error, 1)
	go func() {
		var reply EstimateReply
		close(started)
		firstErr <- fx.client.Submit("slow", testImage(5), 5*time.Second, &reply)
	}()
	<-started

	// Wait until the slot is actually occupied before probing.
	deadline := time.Now().Add(2 * time.Second)
	for fx.server.Inflight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first submit never occupied the in-flight slot")
		}
		time.Sleep(time.Millisecond)
	}

	var sheds int
	for i := 0; i < 5; i++ {
		var reply EstimateReply
		err := fx.client.Fetch("slow", &reply)
		if CodeOf(err) == StatusOverloaded {
			sheds++
		}
	}
	if sheds == 0 {
		t.Fatal("no request shed while the in-flight slot was held")
	}
	if fx.server.Sheds() == 0 {
		t.Fatal("server shed counter did not advance")
	}
	if err := <-firstErr; err != nil {
		t.Fatalf("parked submit failed: %v", err)
	}
}

func TestClientSurvivesTimedOutCall(t *testing.T) {
	// A Submit whose estimate misses a tiny wait returns StatusNotReady
	// from the server; the connection stays healthy for later calls.
	fx := newWireFixture(t,
		serve.Config{Estimator: &serve.StubEstimator{Latency: 150 * time.Millisecond}},
		ServerConfig{})
	var reply EstimateReply
	err := fx.client.Submit("l", testImage(6), time.Millisecond, &reply)
	if CodeOf(err) != StatusNotReady {
		t.Fatalf("err = %v, want StatusNotReady", err)
	}
	// Connection still works.
	if err := fx.client.Submit("l", testImage(7), 5*time.Second, &reply); err != nil {
		t.Fatal(err)
	}
	if fx.client.Err() != nil {
		t.Fatalf("client err = %v, want healthy", fx.client.Err())
	}
}

func TestServerDropsBadPreface(t *testing.T) {
	fx := newWireFixture(t, serve.Config{}, ServerConfig{})
	conn, err := net.Dial("tcp", fx.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var b [1]byte
	if _, err := conn.Read(b[:]); err == nil {
		t.Fatal("server answered a non-wire peer instead of dropping it")
	}
}

func TestServerDropsCorruptFrame(t *testing.T) {
	fx := newWireFixture(t, serve.Config{}, ServerConfig{})
	conn, err := net.Dial("tcp", fx.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writePreface(conn); err != nil {
		t.Fatal(err)
	}
	if err := readPreface(conn); err != nil {
		t.Fatal(err)
	}
	frame := encodeFrame(TypePing, StatusOK, 1, nil)
	frame[len(frame)-1] ^= 0xFF // break the CRC
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	// The server must hang up: a broken frame boundary is unrecoverable.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var b [1]byte
	if _, err := conn.Read(b[:]); err == nil {
		t.Fatal("server kept the connection after a corrupt frame")
	}
}

func TestUnknownTypeGetsBadRequest(t *testing.T) {
	fx := newWireFixture(t, serve.Config{}, ServerConfig{})
	conn, err := net.Dial("tcp", fx.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writePreface(conn); err != nil {
		t.Fatal(err)
	}
	if err := readPreface(conn); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(encodeFrame(0x7F, StatusOK, 3, nil)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	hdr, payload, _, err := readFrame(conn, nil, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Type != TypeError || hdr.Status != StatusBadRequest || hdr.ReqID != 3 {
		t.Fatalf("reply header = %+v, want TypeError/StatusBadRequest/reqID 3", hdr)
	}
	if msg, err := parseErrorPayload(payload); err != nil || msg == "" {
		t.Fatalf("error payload = %q, %v", msg, err)
	}
}

func TestClientFailsPendingOnConnectionLoss(t *testing.T) {
	// A half-wire server: speaks the preface, then hangs up mid-call.
	verifyNoLeaks(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if err := readPreface(conn); err != nil {
			conn.Close()
			return
		}
		if err := writePreface(conn); err != nil {
			conn.Close()
			return
		}
		accepted <- conn
	}()
	client, err := Dial(ln.Addr().String(), ClientConfig{CallTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	conn := <-accepted
	// Sever the connection while a call is pending.
	go func() {
		// Read the request frame first so the client's write succeeds.
		var lenb [4]byte
		if _, err := conn.Read(lenb[:]); err == nil {
			rest := make([]byte, binary.LittleEndian.Uint32(lenb[:]))
			_, _ = conn.Read(rest)
		}
		conn.Close()
	}()
	var reply EstimateReply
	err = client.Fetch("l", &reply)
	if err == nil {
		t.Fatal("call succeeded over a severed connection")
	}
	if client.Err() == nil {
		t.Fatal("client did not record the terminal error")
	}
	// Further calls fail fast with the same terminal error.
	if err := client.Fetch("l", &reply); err == nil {
		t.Fatal("call succeeded on a dead client")
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	// A Submit parked deep in its wait must return promptly once the
	// service shuts down — Close infers the pending frame, so the parked call may
	// come back with its estimate or with ErrClosed mapped to a status,
	// but it must not ride out its 30 s wait budget.
	fx := newWireFixture(t,
		serve.Config{Estimator: &serve.StubEstimator{Latency: 300 * time.Millisecond}},
		ServerConfig{})
	errCh := make(chan error, 1)
	go func() {
		var reply EstimateReply
		errCh <- fx.client.Submit("l", testImage(8), 30*time.Second, &reply)
	}()
	// Let the submit reach the server, then tear everything down.
	deadline := time.Now().Add(2 * time.Second)
	for fx.server.Inflight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("submit never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}
	fx.svc.Close()
	fx.server.Close()
	select {
	case <-errCh:
		// Either outcome is fine; returning at all is the contract.
	case <-time.After(10 * time.Second):
		t.Fatal("submit still blocked after server close")
	}
}
