package gemm

// The fused ReLU+2×2 pooling kernels that follow each convolution GEMM.
// Like the matrix kernels they dispatch to AVX2 on amd64 and fall back to
// portable Go elsewhere. They live here rather than in the nn package so
// every SIMD entry point shares one CPU-feature gate.

var (
	poolAvgKern func(dst, r0, r1 []float32, c int) bool
	poolMaxKern func(dst, r0, r1 []float32, c int) bool
)

// Pool2x2AvgReLU writes one output row of fused ReLU + 2×2/stride-2
// average pooling over the interleaved-channel input rows r0 and r1:
//
//	dst[x·c+ch] = mean of max(0, ·) over the 2×2 window at (2x, ch)
//
// dst holds ow·c floats; r0 and r1 must each expose at least 2·ow·c.
func Pool2x2AvgReLU(dst, r0, r1 []float32, c int) {
	if c%8 == 0 && poolAvgKern != nil && poolAvgKern(dst, r0, r1, c) {
		return
	}
	for x := 0; x*c < len(dst); x++ {
		o, i0 := x*c, 2*x*c
		for ch := 0; ch < c; ch++ {
			dst[o+ch] = (relu(r0[i0+ch]) + relu(r0[i0+c+ch]) +
				relu(r1[i0+ch]) + relu(r1[i0+c+ch])) * 0.25
		}
	}
}

// Pool2x2MaxReLU is Pool2x2AvgReLU with max pooling.
func Pool2x2MaxReLU(dst, r0, r1 []float32, c int) {
	if c%8 == 0 && poolMaxKern != nil && poolMaxKern(dst, r0, r1, c) {
		return
	}
	for x := 0; x*c < len(dst); x++ {
		o, i0 := x*c, 2*x*c
		for ch := 0; ch < c; ch++ {
			best := r0[i0+ch]
			if v := r0[i0+c+ch]; v > best {
				best = v
			}
			if v := r1[i0+ch]; v > best {
				best = v
			}
			if v := r1[i0+c+ch]; v > best {
				best = v
			}
			if best < 0 {
				best = 0
			}
			dst[o+ch] = best
		}
	}
}

func relu(v float32) float32 {
	if v < 0 {
		return 0
	}
	return v
}
