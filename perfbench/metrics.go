package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricSpec names one reported metric and its unit. The lists below are
// the single source of the names BENCHMARK.json declares; the self-test
// holds the two in agreement.
type metricSpec struct {
	Name, Unit string
}

// endToEnd is what a user of the system sees, reported on every workload
// with --trace 0.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"served_per_s", "1/s"},
	{"rtt_p50_ms", "ms"},
	{"age_p50_ms", "ms"},
	{"fresh_share", "share"},
	{"max_rss_mb", "MB"},
}

// nnLayers are the conv, pool and dense layers of core.ScaledArch by their
// index in Network.Layers (ReLU and Flatten carry no metric of their own).
var nnLayers = []struct {
	Index int
	Kind  string
}{
	{0, "conv"}, {2, "pool"}, {3, "conv"}, {5, "pool"}, {6, "conv"}, {8, "pool"},
	{9, "conv"}, {12, "dense"}, {14, "dense"},
}

// perLayer is reported with --trace 1 on every workload. A layer the
// workload does not exercise reads 0 (only serve.wait_ms_* on serve-fetch,
// which sends no waiting submits). The offline figures gen_packets_per_s,
// train_epoch_s and eval_s head their layers' groups.
func perLayer() []metricSpec {
	s := []metricSpec{
		{"gen_packets_per_s", "1/s"},
		{"room.trajectory_us", "us"},
		{"channel.cir_us", "us"},
		{"channel.transmit_us", "us"},
		{"dsp.impair_us", "us"},
		{"estimate.sync_us", "us"},
		{"estimate.ls_us", "us"},
		{"camera.render_us", "us"},
		{"dataset.accounted_share", "share"},
		{"train_epoch_s", "s"},
	}
	for _, l := range nnLayers {
		s = append(s,
			metricSpec{fmt.Sprintf("nn.L%d.%s.fwd_us", l.Index, l.Kind), "us"},
			metricSpec{fmt.Sprintf("nn.L%d.%s.bwd_us", l.Index, l.Kind), "us"})
	}
	s = append(s,
		metricSpec{"nn.nadam_us", "us"},
		metricSpec{"nn.step_ms", "ms"},
		metricSpec{"eval_s", "s"},
		metricSpec{"dataset.reception_us", "us"},
		metricSpec{"estimate.cfo_us", "us"},
		metricSpec{"estimate.decode_us", "us"},
		metricSpec{"phy.despread_us", "us"},
		metricSpec{"core.vvd_estimate_us", "us"},
		metricSpec{"kalman.predict_us", "us"},
	)
	for _, phase := range []string{"gen", "train", "eval"} {
		s = append(s,
			metricSpec{"runtime." + phase + ".alloc_mb", "MB"},
			metricSpec{"runtime." + phase + ".gc_cycles", "count"})
	}
	s = append(s, metricSpec{"nn.engine_frame_us", "us"})
	for _, l := range nnLayers {
		if l.Kind == "pool" {
			continue
		}
		s = append(s,
			metricSpec{fmt.Sprintf("gemm.L%d.gflops", l.Index), "GFLOP/s"},
			metricSpec{fmt.Sprintf("gemm.L%d.mflop", l.Index), "MFLOP"})
	}
	return append(s,
		metricSpec{"capacity_per_s", "1/s"},
		metricSpec{"rtt_p99_ms", "ms"},
		metricSpec{"serve.wait_ms_p50", "ms"},
		metricSpec{"serve.wait_ms_p99", "ms"},
		metricSpec{"serve.infer_batch_ms_p50", "ms"},
		metricSpec{"serve.batch_mean", "count"},
		metricSpec{"serve.frames_dropped", "count"},
		metricSpec{"wire.front_self_ms", "ms"},
		metricSpec{"shard.route_self_ms", "ms"},
		metricSpec{"serve.fetch_us", "us"},
		metricSpec{"shard.imbalance", "ratio"},
		metricSpec{"wire.sheds", "count"},
		metricSpec{"wire.bytes_per_req", "B"},
		metricSpec{"store.registry_put_ms", "ms"},
		metricSpec{"store.registry_load_ms", "ms"},
		metricSpec{"loadgen.lag_p99_ms", "ms"},
		metricSpec{"trace.overhead_capacity_share", "share"},
		metricSpec{"trace.overhead_rtt_p50_share", "share"},
	)
}

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics; NaN for no samples. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantileOr0 is quantile for per-layer metrics, where a layer without
// samples on this workload reads 0.
func quantileOr0(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, q)
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// perCall times fn: one warm-up call, then reps rounds of n calls each, and
// returns the median over rounds of the mean call time.
func perCall(reps, n int, fn func()) time.Duration {
	fn()
	rounds := make([]float64, reps)
	for i := range rounds {
		t0 := time.Now()
		for j := 0; j < n; j++ {
			fn()
		}
		rounds[i] = float64(time.Since(t0)) / float64(n)
	}
	return time.Duration(median(rounds))
}
