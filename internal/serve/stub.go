package serve

import "time"

// StubEstimator is a load-testing BatchEstimator: it produces a
// deterministic CIR from each frame after an optional fixed per-inference
// latency, with no model and (almost) no CPU. It exists so the cluster
// tier — wire protocol, shard router, load generator — can be measured
// and tested without re-measuring the inference kernel underneath:
// Latency is a fixed emulated cost per inference — the cluster benchmark
// uses 1.6 ms, the engine's cost for a batch of 8 on one core as measured
// when the GEMM engine was introduced, not a figure tracking the current
// engine — or 0 to make the transport itself the bottleneck.
//
// The CIR is a pure function of the frame bytes and is batch-invariant,
// so any two backends given the same frame produce byte-identical
// estimates — the property the router integration tests pin.
type StubEstimator struct {
	// Taps is the CIR length per estimate. Default 11 (the paper's
	// channel length) when zero.
	Taps int
	// Latency, when positive, is slept once per EstimateBatch call —
	// a fixed cost per inference, like a busy accelerator.
	Latency time.Duration
}

// EstimateBatch derives one Taps-long CIR per frame: every tap mixes a
// full-image checksum with the tap index, so a single flipped pixel
// changes every tap.
func (e *StubEstimator) EstimateBatch(imgs [][]float32) ([][]complex128, error) {
	if e.Latency > 0 {
		time.Sleep(e.Latency)
	}
	taps := e.Taps
	if taps <= 0 {
		taps = 11
	}
	out := make([][]complex128, len(imgs))
	for i, img := range imgs {
		var sum float64
		for j, p := range img {
			sum += float64(p) * float64(j%7+1)
		}
		cir := make([]complex128, taps)
		for k := range cir {
			cir[k] = complex(sum+float64(k), float64(len(img))-float64(2*k))
		}
		out[i] = cir
	}
	return out, nil
}

// InferenceMode labels the stub in /metricsz and wire metrics.
func (e *StubEstimator) InferenceMode() string { return "stub" }
