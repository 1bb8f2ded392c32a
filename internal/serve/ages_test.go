package serve

import (
	"testing"
	"time"

	"vvd/internal/metrics"
)

// TestAgeSamplerPercentiles pins the /metricsz age percentiles to
// metrics.Quantile over the recorded ages, and to zeros before the first
// served estimate.
func TestAgeSamplerPercentiles(t *testing.T) {
	var a ageSampler
	if p50, p99 := a.percentiles(); p50 != 0 || p99 != 0 {
		t.Fatalf("empty sampler = %v, %v; want 0, 0", p50, p99)
	}
	// 1..100 ms recorded out of order.
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(time.Duration(i+1) * time.Millisecond)
		a.record(time.Duration((i*37)%100+1) * time.Millisecond)
	}
	p50, p99 := a.percentiles()
	want50 := time.Duration(metrics.Quantile(sorted, 0.50))
	want99 := time.Duration(metrics.Quantile(sorted, 0.99))
	if p50 != want50 || p99 != want99 {
		t.Fatalf("percentiles = %v, %v; want %v, %v", p50, p99, want50, want99)
	}
	if want50 != 50500*time.Microsecond {
		t.Fatalf("metrics.Quantile p50 = %v, want 50.5ms (linear interpolation)", want50)
	}
}
