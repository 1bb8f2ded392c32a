//go:build amd64

package gemm

// cpuid and xgetbv are implemented in detect_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// sgemmKern8x8 and sgemmGatherKern8x8 are the AVX2+FMA micro-kernels in
// kernels_amd64.s. Panel layouts match the Go kernels exactly.
//
//go:noescape
func sgemmKern8x8(k int64, a, b, c *float32, ldc int64)

//go:noescape
func sgemmGatherKern8x8(k int64, act *float32, lanes *[8]int, koff *int, b, c *float32, ldc int64)

// Pooling kernels in simd_amd64.s; the bool result reports whether the
// kernel ran.
//
//go:noescape
func poolAvgAsm(dst, r0, r1 []float32, c int) bool

//go:noescape
func poolMaxAsm(dst, r0, r1 []float32, c int) bool

func init() {
	if !haveAVX2FMA() {
		return
	}
	accelerated = true
	kernF32 = func(kc int, a, b, c []float32, ldc int) {
		sgemmKern8x8(int64(kc), &a[0], &b[0], &c[0], int64(ldc))
	}
	kernGatherF32 = func(k int, act []float32, lanes *[mr]int, kOff []int, b, c []float32, ldc int) {
		sgemmGatherKern8x8(int64(k), &act[0], lanes, &kOff[0], &b[0], &c[0], int64(ldc))
	}
	poolAvgKern = poolAvgAsm
	poolMaxKern = poolMaxAsm
}

// haveAVX2FMA reports CPU+OS support for the AVX2/FMA kernels.
func haveAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	const fma = 1 << 12
	if ecx1&osxsave == 0 || ecx1&avx == 0 || ecx1&fma == 0 {
		return false
	}
	// OS must preserve XMM+YMM state across context switches.
	xcr0, _ := xgetbv0()
	if xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}
