package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestHTTPRefusalsAreErrors holds the HTTP transport to what its server
// means: 503 (service closed or estimator failed) and 429 (session cap)
// are refusals, not backpressure, so a run against them counts hard
// errors and no sheds, in both modes.
func TestHTTPRefusalsAreErrors(t *testing.T) {
	for _, code := range []int{http.StatusServiceUnavailable, http.StatusTooManyRequests} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, `{"error":"refused"}`, code)
		}))
		for _, fetch := range []bool{false, true} {
			cl := newHTTPClient(strings.TrimPrefix(ts.URL, "http://"), 1)
			rep := run(cl, runConfig{Links: 1, Duration: 20 * time.Millisecond, Fetch: fetch})
			cl.Close()
			if rep.Errors == 0 || rep.Sheds != 0 || rep.Served != 0 {
				t.Errorf("http %d (fetch %v): %d errors, %d sheds, %d served; want errors only",
					code, fetch, rep.Errors, rep.Sheds, rep.Served)
			}
		}
		ts.Close()
	}
}

// TestPercentilesMS pins vvd-load's percentiles to the linear
// interpolation of metrics.Quantile.
func TestPercentilesMS(t *testing.T) {
	ds := []time.Duration{4 * time.Millisecond, time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if p50, p99, max := percentilesMS(ds); !near(p50, 2.5) || !near(p99, 3.97) || !near(max, 4) {
		t.Fatalf("percentilesMS = %v, %v, %v; want 2.5, 3.97, 4", p50, p99, max)
	}
	if p50, p99, max := percentilesMS(nil); !near(p50, 0) || !near(p99, 0) || !near(max, 0) {
		t.Fatalf("percentilesMS(nil) = %v, %v, %v; want zeros", p50, p99, max)
	}
}
