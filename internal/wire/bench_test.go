package wire

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"vvd/internal/serve"
)

// benchImage matches the model's 4500-pixel depth frame (PR 6) — the
// payload the JSON-vs-binary comparison in EXPERIMENTS.md is about.
const benchPixels = 4500

func benchImg() []float32 {
	img := make([]float32, benchPixels)
	for i := range img {
		img[i] = float32(i%97) * 0.03125
	}
	return img
}

func BenchmarkWireEncodeSubmit(b *testing.B) {
	img := benchImg()
	var buf []byte
	b.ReportAllocs()
	b.SetBytes(benchPixels * 4)
	for i := 0; i < b.N; i++ {
		f := beginFrame(buf, TypeSubmit, StatusOK, uint64(i))
		f = appendSubmitPayload(f, "bench-link", img, 2*time.Second)
		buf = finishFrame(f)
	}
}

func BenchmarkWireDecodeSubmit(b *testing.B) {
	frame := encodeFrame(TypeSubmit, StatusOK, 1, func(p []byte) []byte {
		return appendSubmitPayload(p, "bench-link", benchImg(), 2*time.Second)
	})
	var req SubmitRequest
	var buf []byte
	b.ReportAllocs()
	b.SetBytes(benchPixels * 4)
	for i := 0; i < b.N; i++ {
		r := bytes.NewReader(frame)
		_, payload, nbuf, err := readFrame(r, buf)
		buf = nbuf
		if err != nil {
			b.Fatal(err)
		}
		if err := parseSubmitPayload(payload, &req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireEncodeEstimate(b *testing.B) {
	est := EstimateReply{
		FrameSeq: 7, SubmittedSeq: 7,
		Age: 3 * time.Millisecond, Inference: 1600 * time.Microsecond,
		CIR: make([]complex64, 11),
	}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := beginFrame(buf, TypeEstimate, StatusOK, uint64(i))
		f = appendEstimatePayload(f, &est)
		buf = finishFrame(f)
	}
}

func BenchmarkWireDecodeEstimate(b *testing.B) {
	in := EstimateReply{FrameSeq: 7, SubmittedSeq: 7, CIR: make([]complex64, 11)}
	frame := encodeFrame(TypeEstimate, StatusOK, 1, func(p []byte) []byte {
		return appendEstimatePayload(p, &in)
	})
	var out EstimateReply
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := bytes.NewReader(frame)
		_, payload, nbuf, err := readFrame(r, buf)
		buf = nbuf
		if err != nil {
			b.Fatal(err)
		}
		if err := parseEstimatePayload(payload, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireSubmitRoundTrip measures the full stack on loopback —
// client encode, server decode, stub inference, estimate reply — the
// number the JSON round-trip benchmark (BenchmarkHTTPEstimatePost) is
// compared to.
func BenchmarkWireSubmitRoundTrip(b *testing.B) {
	svc, err := serve.New(serve.Config{Estimator: &serve.StubEstimator{}, InputSize: benchPixels})
	if err != nil {
		b.Fatal(err)
	}
	server := NewServer(NewServiceHandler(svc), ServerConfig{})
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	client, err := Dial(addr.String(), ClientConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		client.Close()
		svc.Close()
		server.Close()
	}()
	img := benchImg()
	var reply EstimateReply
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Submit("bench", img, 5*time.Second, &reply); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireSubmitPipelined drives the same round trip from P
// concurrent link sessions over one connection — the multiplexing win
// that a request-per-connection protocol cannot have.
func BenchmarkWireSubmitPipelined(b *testing.B) {
	svc, err := serve.New(serve.Config{Estimator: &serve.StubEstimator{}, InputSize: benchPixels})
	if err != nil {
		b.Fatal(err)
	}
	server := NewServer(NewServiceHandler(svc), ServerConfig{})
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	client, err := Dial(addr.String(), ClientConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		client.Close()
		svc.Close()
		server.Close()
	}()
	img := benchImg()
	b.ReportAllocs()
	b.ResetTimer()
	var id atomic.Int32
	b.RunParallel(func(pb *testing.PB) {
		link := fmt.Sprintf("bench-%d", id.Add(1))
		var reply EstimateReply
		for pb.Next() {
			if err := client.Submit(link, img, 5*time.Second, &reply); err != nil {
				b.Fatal(err)
			}
		}
	})
}
