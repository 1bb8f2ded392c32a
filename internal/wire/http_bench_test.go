package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"vvd/internal/serve"
)

// The HTTP/JSON round-trip benchmarks, with -benchmem, pin the pooled
// encode/decode buffers: steady-state request handling must not grow
// per-request garbage with the 4500-pixel frame size the model serves.
// They are also the single-node baseline the binary protocol benchmarks
// and EXPERIMENTS.md compare against.

func benchHTTPServer(b *testing.B) *httptest.Server {
	b.Helper()
	s, err := serve.New(serve.Config{Estimator: &serve.StubEstimator{}, InputSize: benchPixels})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(NewHTTPHandler(NewServiceHandler(s), benchPixels))
	b.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts
}

func benchHTTPBody(b *testing.B, link string) []byte {
	b.Helper()
	body, err := json.Marshal(map[string]any{"link": link, "image": benchImg()})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

func drainOK(b *testing.B, resp *http.Response, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		b.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
}

func BenchmarkHTTPEstimatePost(b *testing.B) {
	ts, body := benchHTTPServer(b), benchHTTPBody(b, "bench")
	client := ts.Client()
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(ts.URL+"/estimate", "application/json", bytes.NewReader(body))
		drainOK(b, resp, err)
	}
}

func BenchmarkHTTPEstimateGet(b *testing.B) {
	ts, body := benchHTTPServer(b), benchHTTPBody(b, "bench")
	client := ts.Client()
	// Publish one estimate for GET to serve.
	resp, err := client.Post(ts.URL+"/estimate", "application/json", bytes.NewReader(body))
	drainOK(b, resp, err)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(ts.URL + "/estimate?link=bench")
		drainOK(b, resp, err)
	}
}

// BenchmarkHTTPEstimatePostParallel is the HTTP twin of
// BenchmarkWireSubmitPipelined: P concurrent link sessions, one
// keep-alive connection each.
func BenchmarkHTTPEstimatePostParallel(b *testing.B) {
	ts := benchHTTPServer(b)
	client := ts.Client()
	b.ReportAllocs()
	b.ResetTimer()
	var id atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		body := benchHTTPBody(b, fmt.Sprintf("bench-%d", id.Add(1)))
		for pb.Next() {
			resp, err := client.Post(ts.URL+"/estimate", "application/json", bytes.NewReader(body))
			drainOK(b, resp, err)
		}
	})
}
