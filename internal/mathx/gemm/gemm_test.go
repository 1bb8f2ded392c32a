package gemm

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// refMul is the float64 reference: C += A·B in the same k-major
// summation order as the kernels.
func refMul(m, k, n int, a, b []float32, c []float64) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float64
			for p := 0; p < k; p++ {
				acc += float64(a[i*k+p]) * float64(b[p*n+j])
			}
			c[i*n+j] += acc
		}
	}
}

func randMat(rng *rand.Rand, size int) []float32 {
	m := make([]float32, size)
	for i := range m {
		m[i] = float32(rng.NormFloat64())
	}
	return m
}

// TestSgemmMatchesReference drives random shapes — including every edge
// case the tiler has (ragged rows, ragged cols, k above the chunk size) —
// against the float64 reference.
func TestSgemmMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 7))
	shapes := [][3]int{
		{1, 1, 1}, {8, 8, 8}, {7, 3, 5}, {9, 9, 9}, {16, 9, 8},
		{33, 17, 22}, {130, 72, 16}, {257, 224, 64}, {64, 1100, 9},
		{4224, 9, 8}, {5, 2048, 3},
	}
	for range 8 {
		shapes = append(shapes, [3]int{rng.IntN(200) + 1, rng.IntN(300) + 1, rng.IntN(70) + 1})
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a := randMat(rng, m*k)
		b := randMat(rng, k*n)
		c := make([]float32, m*n)
		for i := range c {
			c[i] = float32(rng.NormFloat64()) // C += must respect prior content
		}
		want := make([]float64, m*n)
		for i := range want {
			want[i] = float64(c[i])
		}
		refMul(m, k, n, a, b, want)
		Sgemm(m, k, n, a, b, c)
		for i := range c {
			diff := math.Abs(float64(c[i]) - want[i])
			tol := 1e-4 + 1e-5*math.Abs(want[i])*math.Sqrt(float64(k))
			if diff > tol {
				t.Fatalf("m=%d k=%d n=%d: c[%d]=%g want %g (diff %g)", m, k, n, i, c[i], want[i], diff)
			}
		}
	}
}

// TestSgemmKernelAgreement pins the assembly and Go micro-kernels against
// each other (FMA-rounding tolerance) on the same packed panels.
func TestSgemmKernelAgreement(t *testing.T) {
	if !Accelerated() {
		t.Skip("no SIMD kernel on this platform")
	}
	rng := rand.New(rand.NewPCG(3, 9))
	for _, kc := range []int{1, 2, 7, 8, 64, 129} {
		a := randMat(rng, kc*mr)
		b := randMat(rng, kc*nr)
		cAsm := make([]float32, mr*nr)
		cGo := make([]float32, mr*nr)
		kernF32(kc, a, b, cAsm, nr)
		sgemmKern8x8Go(kc, a, b, cGo, nr)
		for i := range cAsm {
			diff := math.Abs(float64(cAsm[i] - cGo[i]))
			if diff > 1e-3+1e-4*math.Abs(float64(cGo[i])) {
				t.Fatalf("kc=%d: asm[%d]=%g go=%g", kc, i, cAsm[i], cGo[i])
			}
		}
	}
}

// convTables builds SgemmGather's offset tables for a valid kh×kw
// convolution over an ih×iw×ic plane, the way the inference engine does.
func convTables(ih, iw, ic, kh, kw int) (rowOff, kOff []int, plane int) {
	for ky := 0; ky < kh; ky++ {
		for kx := 0; kx < kw; kx++ {
			for c := 0; c < ic; c++ {
				kOff = append(kOff, (ky*iw+kx)*ic+c)
			}
		}
	}
	for y := 0; y <= ih-kh; y++ {
		for x := 0; x <= iw-kw; x++ {
			rowOff = append(rowOff, (y*iw+x)*ic)
		}
	}
	return rowOff, kOff, ih * iw * ic
}

// gatherA materializes the implicit patch matrix as a row-major m×k A.
func gatherA(m int, act []float32, plane int, rowOff, kOff []int) []float32 {
	a := make([]float32, 0, m*len(kOff))
	for g := 0; g < m; g++ {
		base := g/len(rowOff)*plane + rowOff[g%len(rowOff)]
		for _, o := range kOff {
			a = append(a, act[base+o])
		}
	}
	return a
}

// TestSgemmGatherMatchesPacked pins the implicit-GEMM entry point bit for
// bit against SgemmPacked over the explicitly gathered A (K ≤ kcCols, so
// both accumulate in the same order): ragged m, odd k, ragged n, row tiles
// crossing output rows and samples, partial last samples, and products
// large enough to fan out.
func TestSgemmGatherMatchesPacked(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 21))
	cases := []struct{ ih, iw, ic, kh, kw, samples, n int }{
		{5, 7, 1, 1, 1, 3, 5},    // k=1
		{9, 13, 1, 3, 3, 2, 8},   // k=9, ow=11
		{11, 21, 8, 3, 3, 3, 13}, // k=72, ow=19
		{8, 10, 16, 3, 3, 13, 8}, // k=144, ow=8 with 13 samples
		{7, 12, 32, 3, 3, 5, 22}, // k=288, ow=10
		{6, 9, 64, 3, 3, 4, 1},   // k=576, ow=7
		{50, 90, 1, 3, 3, 4, 8},  // paper-width first conv, fans out
		{22, 42, 8, 3, 3, 8, 9},  // fans out with a ragged N
	}
	for _, tc := range cases {
		rowOff, kOff, plane := convTables(tc.ih, tc.iw, tc.ic, tc.kh, tc.kw)
		k := len(kOff)
		act := randMat(rng, tc.samples*plane)
		pb := PackB(k, tc.n, randMat(rng, k*tc.n))
		// Every sample in full, and a partial last sample.
		for _, m := range []int{tc.samples * len(rowOff), tc.samples*len(rowOff) - 3} {
			c0 := randMat(rng, m*tc.n) // C += must respect prior content
			want := append([]float32(nil), c0...)
			SgemmPacked(m, gatherA(m, act, plane, rowOff, kOff), k, pb, want, tc.n)
			got := append([]float32(nil), c0...)
			SgemmGather(m, act, plane, rowOff, kOff, pb, got, tc.n)
			for i := range got {
				if got[i] != want[i] { //vvdlint:bitexact -- implicit GEMM reproduces the packed accumulation order exactly
					t.Fatalf("%+v m=%d: c[%d]=%g, packed %g", tc, m, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSgemmGatherKernelPairs pins each gather micro-kernel against its
// packed-panel twin on the same rows, bit for bit: the Go pair on every
// CPU, the assembly pair where the SIMD kernels are active. Lanes are
// deliberately unordered and repeated, as tail tiles produce.
func TestSgemmGatherKernelPairs(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 4))
	type kernels struct {
		name   string
		gather func(int, []float32, *[mr]int, []int, []float32, []float32, int)
		packed func(int, []float32, []float32, []float32, int)
	}
	pairs := []kernels{{"go", sgemmGatherKern8x8Go, sgemmKern8x8Go}}
	if Accelerated() {
		pairs = append(pairs, kernels{"asm", kernGatherF32, kernF32})
	}
	for _, pair := range pairs {
		for _, k := range []int{1, 2, 9, 72, 144, 288, 576} {
			act := randMat(rng, 4096)
			kOff := make([]int, k)
			for p := range kOff {
				kOff[p] = rng.IntN(1024)
			}
			lanes := [mr]int{2900, 0, 17, 17, 3000, 1, 1500, 0}
			a := make([]float32, k*mr)
			for p := 0; p < k; p++ {
				for r := 0; r < mr; r++ {
					a[p*mr+r] = act[lanes[r]+kOff[p]]
				}
			}
			b := randMat(rng, k*nr)
			const ldc = 11
			c0 := randMat(rng, (mr-1)*ldc+nr)
			want := append([]float32(nil), c0...)
			pair.packed(k, a, b, want, ldc)
			got := append([]float32(nil), c0...)
			pair.gather(k, act, &lanes, kOff, b, got, ldc)
			for i := range got {
				if got[i] != want[i] { //vvdlint:bitexact -- both kernels run the same FMA sequence
					t.Fatalf("%s k=%d: c[%d]=%g, packed kernel %g", pair.name, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSgemmGatherRejectsOutOfPlane pins the bounds checks that keep the
// unchecked SIMD loads inside act: each malformed call panics before any
// kernel runs.
func TestSgemmGatherRejectsOutOfPlane(t *testing.T) {
	rowOff, kOff, plane := convTables(6, 6, 1, 3, 3)
	pb := PackB(len(kOff), 4, make([]float32, len(kOff)*4))
	m := 2 * len(rowOff)
	c := make([]float32, m*4)
	act := make([]float32, 2*plane)
	cases := map[string]func(){
		"short act":         func() { SgemmGather(m, act[:2*plane-1], plane, rowOff, kOff, pb, c, 4) },
		"row past plane":    func() { SgemmGather(m, act, plane, append(rowOff[:len(rowOff):len(rowOff)], plane-8), kOff, pb, c, 4) },
		"negative row":      func() { SgemmGather(m, act, plane, append([]int{-1}, rowOff[1:]...), kOff, pb, c, 4) },
		"negative patch":    func() { SgemmGather(m, act, plane, rowOff, append([]int{-1}, kOff[1:]...), pb, c, 4) },
		"k mismatch":        func() { SgemmGather(m, act, plane, rowOff, kOff[1:], pb, c, 4) },
		"short output":      func() { SgemmGather(m, act, plane, rowOff, kOff, pb, c[:len(c)-1], 4) },
		"plane understated": func() { SgemmGather(m, act, plane-1, rowOff, kOff, pb, c, 4) },
	}
	for name, call := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("malformed SgemmGather call did not panic")
				}
			}()
			call()
		})
	}
}

// TestSgemmPackedRejectsShortOperands pins the bounds checks that keep
// the unchecked SIMD stores inside c: each malformed call panics before
// any kernel runs, so the output buffer — including the backing past
// len(c) — comes back untouched.
func TestSgemmPackedRejectsShortOperands(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	const m, k, n = 9, 4, 8
	a := randMat(rng, m*k)
	bm := randMat(rng, k*n)
	pb := PackB(k, n, bm)
	cases := map[string]func(c []float32){
		"Sgemm short output": func(c []float32) { Sgemm(8, k, n, a, bm, c[:n]) },
		"short output":       func(c []float32) { SgemmPacked(m, a, k, pb, c[:m*n-1], n) },
		"ldc below n":        func(c []float32) { SgemmPacked(m, a, k, pb, c, n-1) },
		"short input":        func(c []float32) { SgemmPacked(m, a[:m*k-1], k, pb, c, n) },
		"lda below k":        func(c []float32) { SgemmPacked(m, a, k-1, pb, c, n) },
	}
	for name, call := range cases {
		t.Run(name, func(t *testing.T) {
			backing := make([]float32, m*n)
			defer func() {
				if recover() == nil {
					t.Fatal("malformed SgemmPacked call did not panic")
				}
				for i, v := range backing {
					if v != 0 {
						t.Fatalf("backing[%d] = %v: a kernel ran before the bounds check", i, v)
					}
				}
			}()
			call(backing)
		})
	}
}

func TestAcceleratedReportsPlatform(t *testing.T) {
	t.Logf("SIMD kernels active: %v", Accelerated())
}

// ---------- benchmarks ----------

// BenchmarkGemm measures the shapes the CNN inference path actually runs
// (conv1/conv2/conv3 patch products and the hidden dense layer). The
// f32 cases multiply an explicit row-major A; f32gather runs the three
// convolutions as the engine does, reading A from the plane.
func BenchmarkGemm(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, s := range [][3]int{{4224, 9, 8}, {924, 72, 8}, {171, 72, 16}, {8, 224, 64}} {
		m, k, n := s[0], s[1], s[2]
		a := randMat(rng, m*k)
		pb := PackB(k, n, randMat(rng, k*n))
		c := make([]float32, m*n)
		b.Run(fmt.Sprintf("f32_%dx%dx%d", m, k, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SgemmPacked(m, a, k, pb, c, n)
			}
			b.ReportMetric(2*float64(m)*float64(k)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
	for _, g := range [][4]int{{50, 90, 1, 8}, {24, 44, 8, 8}, {11, 21, 8, 16}} { // ih, iw, ic, filters
		rowOff, kOff, plane := convTables(g[0], g[1], g[2], 3, 3)
		m, k, n := len(rowOff), len(kOff), g[3]
		act := randMat(rng, plane)
		pb := PackB(k, n, randMat(rng, k*n))
		c := make([]float32, m*n)
		b.Run(fmt.Sprintf("f32gather_%dx%dx%d", m, k, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SgemmGather(m, act, plane, rowOff, kOff, pb, c, n)
			}
			b.ReportMetric(2*float64(m)*float64(k)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
