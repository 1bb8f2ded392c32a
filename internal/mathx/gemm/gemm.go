// Package gemm implements the matrix-multiply core of the inference
// engine: a cache-blocked float32 GEMM and an implicit-GEMM float32
// variant for convolution, both built around an 8×8 register micro-tile.
//
// The weight operand B is packed once (PackB) into NR-wide column panels
// and reused across every call — for CNN inference the weights never
// change, so the packing cost is paid at model-compile time. How the
// activation operand A reaches the kernel depends on the entry point:
// SgemmPacked packs a row-major A per call into MR-row panels held in
// pooled scratch; SgemmGather never materializes A at all — its kernel
// reads each patch element straight from the convolution's activation
// plane through precomputed offset tables. Steady-state calls allocate
// nothing. On amd64 with AVX2+FMA the micro-kernels are hand-written
// assembly (8 FMA lanes per cycle pair); everywhere else pure-Go kernels
// with the same summation order run, so results are platform-independent
// up to FMA rounding.
//
// Large products are tiled across goroutines by row block; row blocks are
// disjoint, so the parallel result is bitwise identical to sequential.
package gemm

import (
	"runtime"
	"sync"
)

const (
	// mr×nr is the register micro-tile computed by one kernel call.
	mr = 8
	nr = 8
	// mcRows bounds the packed-A block per worker pass (L2 budget:
	// 128 rows × 1024 k × 4 B = 512 KiB worst case, far less at CNN K).
	mcRows = 128
	// kcCols bounds the K extent of one packed panel pass so the A and B
	// panels stay L1-resident (8 × 1024 × 4 B = 32 KiB each at the cap).
	kcCols = 1024
	// parallelFlops is the m·k·n product above which SgemmPacked fans out
	// across GOMAXPROCS goroutines.
	parallelFlops = 1 << 20
)

// kernF32 is the active float32 micro-kernel: C[8×8] += A_panel·B_panel
// where a is k×8 (a[p*8+r]), b is k×8 (b[p*8+j]) and c has row stride ldc.
// dispatch_amd64.go swaps in the AVX2+FMA version when the CPU supports it.
var kernF32 = sgemmKern8x8Go

// kernGatherF32 is the active implicit-GEMM float32 micro-kernel: as
// kernF32, but row r of the A panel at k step p is act[lanes[r]+kOff[p]].
var kernGatherF32 = sgemmGatherKern8x8Go

// Accelerated reports whether the SIMD micro-kernels are active (amd64
// with AVX2+FMA detected at startup).
func Accelerated() bool { return accelerated }

var accelerated bool

// ---------- float32 ----------

// PackedB is a weight matrix packed into NR-wide column panels, ready to
// stream through the micro-kernel. Build once per weight tensor.
type PackedB struct {
	K, N int
	data []float32 // ceil(N/nr) panels, each K×nr, zero-padded columns
}

// PackB packs the row-major k×n matrix b.
func PackB(k, n int, b []float32) *PackedB {
	if len(b) < k*n {
		panic("gemm: PackB matrix shorter than k×n")
	}
	tiles := (n + nr - 1) / nr
	pb := &PackedB{K: k, N: n, data: make([]float32, tiles*k*nr)}
	for t := 0; t < tiles; t++ {
		panel := pb.data[t*k*nr:]
		j0 := t * nr
		cols := min(nr, n-j0)
		for p := 0; p < k; p++ {
			row := b[p*n+j0:]
			dst := panel[p*nr : p*nr+nr]
			for j := 0; j < cols; j++ {
				dst[j] = row[j]
			}
			for j := cols; j < nr; j++ {
				dst[j] = 0
			}
		}
	}
	return pb
}

// scratch holds one worker's packing buffers and edge tiles.
type scratch struct {
	apanel []float32
	tile   [mr * nr]float32
	lanes  [mr]int // SgemmGather row-tile offsets (pooled: a stack array would escape through kernGatherF32)
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// SgemmPacked computes C += A·B: a is row-major m×K with stride lda,
// c is row-major m×N with stride ldc, b was packed with PackB. Safe for
// concurrent use; the call itself fans out over row blocks when the
// product is large enough. A call whose a or c is shorter than m rows at
// its stride panics before any kernel runs, so the unchecked SIMD loads
// and stores stay inside the slices given.
func SgemmPacked(m int, a []float32, lda int, pb *PackedB, c []float32, ldc int) {
	if m == 0 {
		return
	}
	k, n := pb.K, pb.N
	if lda < k || len(a) < (m-1)*lda+k {
		panic("gemm: SgemmPacked input shorter than m×K")
	}
	if ldc < n || len(c) < (m-1)*ldc+n {
		panic("gemm: SgemmPacked output shorter than m×N")
	}
	workers := runtime.GOMAXPROCS(0)
	blocks := (m + mcRows - 1) / mcRows
	if workers > blocks {
		workers = blocks
	}
	if workers <= 1 || m*k*n < parallelFlops {
		sgemmRange(0, m, a, lda, pb, c, ldc)
		return
	}
	var wg sync.WaitGroup
	per := (blocks + workers - 1) / workers * mcRows
	for i0 := 0; i0 < m; i0 += per {
		i1 := min(i0+per, m)
		wg.Add(1)
		go func(i0, i1 int) {
			defer wg.Done()
			sgemmRange(i0, i1, a, lda, pb, c, ldc)
		}(i0, i1)
	}
	wg.Wait()
}

// Sgemm is the convenience form: C += A·B with b packed on the fly
// (tests and one-shot callers; hot paths pre-pack).
func Sgemm(m, k, n int, a, b, c []float32) {
	SgemmPacked(m, a, k, PackB(k, n, b), c, n)
}

// ---------- implicit-GEMM A (convolution) ----------
//
// A convolution's im2col patch matrix never needs to exist. With P =
// len(rowOff) output positions per sample, row g of the patch matrix
// (sample g/P, position g%P) has its element p at
//
//	act[(g/P)·plane + rowOff[g%P] + kOff[p]]
//
// so the kernel reads A straight from the activation plane and the
// im2col gather-and-pack pass disappears. Accumulation order is the same
// as SgemmPacked over the explicitly gathered A (for K within the kcCols
// panel budget, where SgemmPacked does not chunk K), so the two agree bit
// for bit.

// SgemmGather computes C += A·B for the implicit patch matrix A above; b
// was packed with PackB and c is row-major m×N with stride ldc. Offsets
// must be non-negative with max(rowOff)+max(kOff) < plane, len(kOff) must
// equal pb.K, and act must hold ceil(m/P) planes; a violation panics
// before the kernel runs, so the unchecked SIMD loads stay inside act.
// Fans out over row tiles like SgemmPacked; the result does not depend
// on GOMAXPROCS.
func SgemmGather(m int, act []float32, plane int, rowOff, kOff []int, pb *PackedB, c []float32, ldc int) {
	k, n := pb.K, pb.N
	if m == 0 || k == 0 {
		return
	}
	if len(kOff) != k || len(rowOff) == 0 {
		panic("gemm: SgemmGather offset tables do not match the product shape")
	}
	kMax := maxPatchOffset(kOff)
	if samples := (m + len(rowOff) - 1) / len(rowOff); len(act) < samples*plane {
		panic("gemm: SgemmGather activation shorter than the planes it spans")
	}
	if ldc < n || len(c) < (m-1)*ldc+n {
		panic("gemm: SgemmGather output shorter than m×N")
	}
	rtiles := (m + mr - 1) / mr
	workers := runtime.GOMAXPROCS(0)
	if workers > rtiles {
		workers = rtiles
	}
	if workers <= 1 || m*k*n < parallelFlops {
		sgemmGatherRange(0, rtiles, m, act, plane, rowOff, kOff, kMax, pb, c, ldc)
		return
	}
	var wg sync.WaitGroup
	per := (rtiles + workers - 1) / workers
	for q0 := 0; q0 < rtiles; q0 += per {
		q1 := min(q0+per, rtiles)
		wg.Add(1)
		go func(q0, q1 int) {
			defer wg.Done()
			sgemmGatherRange(q0, q1, m, act, plane, rowOff, kOff, kMax, pb, c, ldc)
		}(q0, q1)
	}
	wg.Wait()
}

// maxPatchOffset returns max(kOff), rejecting negative offsets.
func maxPatchOffset(kOff []int) int {
	m := 0
	for _, o := range kOff {
		if o < 0 {
			panic("gemm: SgemmGather negative patch offset")
		}
		m = max(m, o)
	}
	return m
}

// sgemmGatherRange computes row tiles [q0, q1). Lane offsets advance
// incrementally (one division per range, not per row); each row offset
// is checked against the plane as it is consumed.
func sgemmGatherRange(q0, q1, m int, act []float32, plane int, rowOff, kOff []int, kMax int, pb *PackedB, c []float32, ldc int) {
	k, n := pb.K, pb.N
	st := scratchPool.Get().(*scratch)
	defer scratchPool.Put(st)
	base, pos := q0*mr/len(rowOff)*plane, q0*mr%len(rowOff)
	lanes := &st.lanes
	for q := q0; q < q1; q++ {
		rrows := min(mr, m-q*mr)
		for r := 0; r < rrows; r++ {
			ro := rowOff[pos]
			if ro < 0 || ro+kMax >= plane {
				panic("gemm: SgemmGather patch reaches outside its activation plane")
			}
			lanes[r] = base + ro
			if pos++; pos == len(rowOff) {
				pos, base = 0, base+plane
			}
		}
		// Tail lanes past m re-read row q*mr; the edge-tile path below
		// drops their results.
		for r := rrows; r < mr; r++ {
			lanes[r] = lanes[0]
		}
		for t := 0; t*nr < n; t++ {
			bp := pb.data[t*k*nr:]
			j0 := t * nr
			cols := min(nr, n-j0)
			if rrows == mr && cols == nr {
				kernGatherF32(k, act, lanes, kOff, bp, c[q*mr*ldc+j0:], ldc)
				continue
			}
			clear(st.tile[:])
			kernGatherF32(k, act, lanes, kOff, bp, st.tile[:], nr)
			for r := 0; r < rrows; r++ {
				crow := c[(q*mr+r)*ldc+j0:]
				for j := 0; j < cols; j++ {
					crow[j] += st.tile[r*nr+j]
				}
			}
		}
	}
}

func sgemmRange(i0, i1 int, a []float32, lda int, pb *PackedB, c []float32, ldc int) {
	k, n := pb.K, pb.N
	st := scratchPool.Get().(*scratch)
	defer scratchPool.Put(st)
	for ic := i0; ic < i1; ic += mcRows {
		rows := min(mcRows, i1-ic)
		rtiles := (rows + mr - 1) / mr
		for kc0 := 0; kc0 < k; kc0 += kcCols {
			kc := min(kcCols, k-kc0)
			st.apanel = packA(st.apanel, a[ic*lda+kc0:], lda, rows, kc)
			for t := 0; t*nr < n; t++ {
				bp := pb.data[t*k*nr+kc0*nr:]
				j0 := t * nr
				cols := min(nr, n-j0)
				for q := 0; q < rtiles; q++ {
					ap := st.apanel[q*kc*mr:]
					rrows := min(mr, rows-q*mr)
					if rrows == mr && cols == nr {
						kernF32(kc, ap, bp, c[(ic+q*mr)*ldc+j0:], ldc)
						continue
					}
					clear(st.tile[:])
					kernF32(kc, ap, bp, st.tile[:], nr)
					for r := 0; r < rrows; r++ {
						crow := c[(ic+q*mr+r)*ldc+j0:]
						for j := 0; j < cols; j++ {
							crow[j] += st.tile[r*nr+j]
						}
					}
				}
			}
		}
	}
}

// packA copies rows×kc of a (stride lda) into MR-row panels laid out
// a[q][p*mr+r], zero-padding the tail rows of the last panel.
func packA(dst []float32, a []float32, lda, rows, kc int) []float32 {
	rtiles := (rows + mr - 1) / mr
	need := rtiles * kc * mr
	if cap(dst) < need {
		dst = make([]float32, need)
	}
	dst = dst[:need]
	for q := 0; q < rtiles; q++ {
		panel := dst[q*kc*mr:]
		for r := 0; r < mr; r++ {
			row := q*mr + r
			if row >= rows {
				for p := 0; p < kc; p++ {
					panel[p*mr+r] = 0
				}
				continue
			}
			src := a[row*lda : row*lda+kc]
			for p, v := range src {
				panel[p*mr+r] = v
			}
		}
	}
	return dst
}

// sgemmKern8x8Go is the portable micro-kernel (same k-order summation as
// the assembly version, without fused multiply-add).
func sgemmKern8x8Go(kc int, a, b, c []float32, ldc int) {
	var acc [mr * nr]float32
	for p := 0; p < kc; p++ {
		bv := b[p*nr : p*nr+nr]
		av := a[p*mr : p*mr+mr]
		for r := 0; r < mr; r++ {
			ar := av[r]
			row := acc[r*nr : r*nr+nr]
			for j, bj := range bv {
				row[j] += ar * bj
			}
		}
	}
	for r := 0; r < mr; r++ {
		crow := c[r*ldc : r*ldc+nr]
		for j := 0; j < nr; j++ {
			crow[j] += acc[r*nr+j]
		}
	}
}

// sgemmGatherKern8x8Go is the portable implicit-GEMM micro-kernel: the
// same summation as sgemmKern8x8Go, with A element (r, p) read from
// act[lanes[r]+kOff[p]] instead of a packed panel.
func sgemmGatherKern8x8Go(k int, act []float32, lanes *[mr]int, kOff []int, b, c []float32, ldc int) {
	var acc [mr * nr]float32
	for p := 0; p < k; p++ {
		bv := b[p*nr : p*nr+nr]
		off := kOff[p]
		for r := 0; r < mr; r++ {
			ar := act[lanes[r]+off]
			row := acc[r*nr : r*nr+nr]
			for j, bj := range bv {
				row[j] += ar * bj
			}
		}
	}
	for r := 0; r < mr; r++ {
		crow := c[r*ldc : r*ldc+nr]
		for j := 0; j < nr; j++ {
			crow[j] += acc[r*nr+j]
		}
	}
}
