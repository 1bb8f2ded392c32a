package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// The HTTP/JSON round-trip benchmarks, with -benchmem, pin the pooled
// encode/decode buffers: steady-state request handling must not grow
// per-request garbage with the 4500-pixel frame size the model serves.
// They are also the single-node baseline the wire protocol benchmarks
// (internal/wire) and EXPERIMENTS.md compare against.

const benchPixels = 4500

func benchHTTPFixture(b *testing.B) (*httptest.Server, []byte) {
	b.Helper()
	s, err := New(Config{Estimator: &StubEstimator{}, InputSize: benchPixels})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(s))
	b.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	img := make([]float32, benchPixels)
	for i := range img {
		img[i] = float32(i%97) * 0.03125
	}
	body, err := json.Marshal(map[string]any{"link": "bench", "image": img})
	if err != nil {
		b.Fatal(err)
	}
	return ts, body
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
	ts, body := benchHTTPFixture(b)
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
	ts, body := benchHTTPFixture(b)
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

// BenchmarkHTTPEstimatePostParallel is the HTTP twin of the wire
// protocol's pipelined benchmark: P concurrent link sessions, one
// keep-alive connection each.
func BenchmarkHTTPEstimatePostParallel(b *testing.B) {
	s, err := New(Config{Estimator: &StubEstimator{}, InputSize: benchPixels})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(s))
	b.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	img := make([]float32, benchPixels)
	for i := range img {
		img[i] = float32(i%97) * 0.03125
	}
	client := ts.Client()
	b.ReportAllocs()
	b.ResetTimer()
	var id atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		body, err := json.Marshal(map[string]any{"link": fmt.Sprintf("bench-%d", id.Add(1)), "image": img})
		if err != nil {
			b.Fatal(err)
		}
		for pb.Next() {
			resp, err := client.Post(ts.URL+"/estimate", "application/json", bytes.NewReader(body))
			drainOK(b, resp, err)
		}
	})
}
