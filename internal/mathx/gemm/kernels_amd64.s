//go:build amd64

#include "textflag.h"

// func sgemmKern8x8(k int64, a, b, c *float32, ldc int64)
//
// C[8][8] += A_panel · B_panel
//   a: packed k×8, a[p*8+r] (8 row values contiguous per k step)
//   b: packed k×8, b[p*8+j] (8 col values contiguous per k step)
//   c: row-major, row stride ldc floats
//
// Y0..Y7 accumulate one output row each; each k step is one 8-float B
// load plus 8 broadcast+FMA pairs. The k loop is unrolled ×2.
TEXT ·sgemmKern8x8(SB), NOSPLIT, $0-40
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), R8
	SHLQ $2, R8              // row stride in bytes

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

	MOVQ CX, R9
	SHRQ $1, R9              // pairs of k steps
	JZ   tail

pair:
	VMOVUPS (DI), Y8
	VBROADCASTSS 0(SI), Y9
	VFMADD231PS Y8, Y9, Y0
	VBROADCASTSS 4(SI), Y9
	VFMADD231PS Y8, Y9, Y1
	VBROADCASTSS 8(SI), Y9
	VFMADD231PS Y8, Y9, Y2
	VBROADCASTSS 12(SI), Y9
	VFMADD231PS Y8, Y9, Y3
	VBROADCASTSS 16(SI), Y9
	VFMADD231PS Y8, Y9, Y4
	VBROADCASTSS 20(SI), Y9
	VFMADD231PS Y8, Y9, Y5
	VBROADCASTSS 24(SI), Y9
	VFMADD231PS Y8, Y9, Y6
	VBROADCASTSS 28(SI), Y9
	VFMADD231PS Y8, Y9, Y7

	VMOVUPS 32(DI), Y10
	VBROADCASTSS 32(SI), Y11
	VFMADD231PS Y10, Y11, Y0
	VBROADCASTSS 36(SI), Y11
	VFMADD231PS Y10, Y11, Y1
	VBROADCASTSS 40(SI), Y11
	VFMADD231PS Y10, Y11, Y2
	VBROADCASTSS 44(SI), Y11
	VFMADD231PS Y10, Y11, Y3
	VBROADCASTSS 48(SI), Y11
	VFMADD231PS Y10, Y11, Y4
	VBROADCASTSS 52(SI), Y11
	VFMADD231PS Y10, Y11, Y5
	VBROADCASTSS 56(SI), Y11
	VFMADD231PS Y10, Y11, Y6
	VBROADCASTSS 60(SI), Y11
	VFMADD231PS Y10, Y11, Y7

	ADDQ $64, SI
	ADDQ $64, DI
	DECQ R9
	JNZ  pair

tail:
	TESTQ $1, CX
	JZ    store
	VMOVUPS (DI), Y8
	VBROADCASTSS 0(SI), Y9
	VFMADD231PS Y8, Y9, Y0
	VBROADCASTSS 4(SI), Y9
	VFMADD231PS Y8, Y9, Y1
	VBROADCASTSS 8(SI), Y9
	VFMADD231PS Y8, Y9, Y2
	VBROADCASTSS 12(SI), Y9
	VFMADD231PS Y8, Y9, Y3
	VBROADCASTSS 16(SI), Y9
	VFMADD231PS Y8, Y9, Y4
	VBROADCASTSS 20(SI), Y9
	VFMADD231PS Y8, Y9, Y5
	VBROADCASTSS 24(SI), Y9
	VFMADD231PS Y8, Y9, Y6
	VBROADCASTSS 28(SI), Y9
	VFMADD231PS Y8, Y9, Y7

store:
	VMOVUPS (DX), Y8
	VADDPS  Y8, Y0, Y0
	VMOVUPS Y0, (DX)
	ADDQ    R8, DX
	VMOVUPS (DX), Y8
	VADDPS  Y8, Y1, Y1
	VMOVUPS Y1, (DX)
	ADDQ    R8, DX
	VMOVUPS (DX), Y8
	VADDPS  Y8, Y2, Y2
	VMOVUPS Y2, (DX)
	ADDQ    R8, DX
	VMOVUPS (DX), Y8
	VADDPS  Y8, Y3, Y3
	VMOVUPS Y3, (DX)
	ADDQ    R8, DX
	VMOVUPS (DX), Y8
	VADDPS  Y8, Y4, Y4
	VMOVUPS Y4, (DX)
	ADDQ    R8, DX
	VMOVUPS (DX), Y8
	VADDPS  Y8, Y5, Y5
	VMOVUPS Y5, (DX)
	ADDQ    R8, DX
	VMOVUPS (DX), Y8
	VADDPS  Y8, Y6, Y6
	VMOVUPS Y6, (DX)
	ADDQ    R8, DX
	VMOVUPS (DX), Y8
	VADDPS  Y8, Y7, Y7
	VMOVUPS Y7, (DX)

	VZEROUPPER
	RET

// func qgemmKern8x8(kp4 int64, a *uint8, b *int8, c *int32, ldc int64)
//
// C[8][8] += A_panel(u8) · B_panel(s8), quad-interleaved panels:
//   a: per quad step, 32 bytes a[qq*32 + r*4 + i]  (8 rows × 4 k bytes)
//   b: per quad step, 32 bytes b[qq*32 + j*4 + i]  (8 cols × 4 k bytes)
//   c: row-major int32, row stride ldc elements
//
// Each (row, quad) step: broadcast the row's 4-byte k-quad to every
// 32-bit lane, VPMADDUBSW against the column quads (u8×s8 → s16 pair
// sums; exact because activations are ≤127 so 2·127·127 < 2¹⁵), then
// VPMADDWD against 1s folds the pair sums into one s32 per column.
TEXT ·qgemmKern8x8(SB), NOSPLIT, $0-40
	MOVQ kp4+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), R8
	SHLQ $2, R8              // row stride in bytes

	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7

	// Y12 = 16×s16 ones (VPMADDWD reducer).
	VPCMPEQW Y12, Y12, Y12
	VPSRLW   $15, Y12, Y12

	TESTQ CX, CX
	JZ    qstore

qloop:
	VMOVDQU (DI), Y8         // 8 column k-quads

	VPBROADCASTD 0(SI), Y9
	VPMADDUBSW Y8, Y9, Y10
	VPMADDWD   Y12, Y10, Y10
	VPADDD     Y10, Y0, Y0

	VPBROADCASTD 4(SI), Y9
	VPMADDUBSW Y8, Y9, Y10
	VPMADDWD   Y12, Y10, Y10
	VPADDD     Y10, Y1, Y1

	VPBROADCASTD 8(SI), Y9
	VPMADDUBSW Y8, Y9, Y10
	VPMADDWD   Y12, Y10, Y10
	VPADDD     Y10, Y2, Y2

	VPBROADCASTD 12(SI), Y9
	VPMADDUBSW Y8, Y9, Y10
	VPMADDWD   Y12, Y10, Y10
	VPADDD     Y10, Y3, Y3

	VPBROADCASTD 16(SI), Y9
	VPMADDUBSW Y8, Y9, Y10
	VPMADDWD   Y12, Y10, Y10
	VPADDD     Y10, Y4, Y4

	VPBROADCASTD 20(SI), Y9
	VPMADDUBSW Y8, Y9, Y10
	VPMADDWD   Y12, Y10, Y10
	VPADDD     Y10, Y5, Y5

	VPBROADCASTD 24(SI), Y9
	VPMADDUBSW Y8, Y9, Y10
	VPMADDWD   Y12, Y10, Y10
	VPADDD     Y10, Y6, Y6

	VPBROADCASTD 28(SI), Y9
	VPMADDUBSW Y8, Y9, Y10
	VPMADDWD   Y12, Y10, Y10
	VPADDD     Y10, Y7, Y7

	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  qloop

qstore:
	VMOVDQU (DX), Y8
	VPADDD  Y8, Y0, Y0
	VMOVDQU Y0, (DX)
	ADDQ    R8, DX
	VMOVDQU (DX), Y8
	VPADDD  Y8, Y1, Y1
	VMOVDQU Y1, (DX)
	ADDQ    R8, DX
	VMOVDQU (DX), Y8
	VPADDD  Y8, Y2, Y2
	VMOVDQU Y2, (DX)
	ADDQ    R8, DX
	VMOVDQU (DX), Y8
	VPADDD  Y8, Y3, Y3
	VMOVDQU Y3, (DX)
	ADDQ    R8, DX
	VMOVDQU (DX), Y8
	VPADDD  Y8, Y4, Y4
	VMOVDQU Y4, (DX)
	ADDQ    R8, DX
	VMOVDQU (DX), Y8
	VPADDD  Y8, Y5, Y5
	VMOVDQU Y5, (DX)
	ADDQ    R8, DX
	VMOVDQU (DX), Y8
	VPADDD  Y8, Y6, Y6
	VMOVDQU Y6, (DX)
	ADDQ    R8, DX
	VMOVDQU (DX), Y8
	VPADDD  Y8, Y7, Y7
	VMOVDQU Y7, (DX)

	VZEROUPPER
	RET

// func sgemmGatherKern8x8(k int64, act *float32, lanes *[8]int, koff *int, b, c *float32, ldc int64)
//
// Implicit-GEMM form of sgemmKern8x8: row r of the A panel at k step p is
// act[lanes[r] + koff[p]], read straight from the activation plane, so no
// packed A panel exists. The eight lane bases act+4·lanes[r] live in
// general-purpose registers for the whole call; each k step is one koff
// load, one 8-float B load and 8 indexed broadcast+FMA pairs. Accumulator
// init, FMA order and the C += acc store match sgemmKern8x8 exactly, so
// results are bit-identical to packing the same rows first.
TEXT ·sgemmGatherKern8x8(SB), NOSPLIT, $0-56
	MOVQ k+0(FP), CX
	MOVQ act+8(FP), SI
	MOVQ lanes+16(FP), AX
	MOVQ koff+24(FP), R13
	MOVQ b+32(FP), DI

	// Lane bases: BX, DX, R8..R12, SI = act + 4·lanes[r].
	MOVQ 0(AX), BX
	LEAQ (SI)(BX*4), BX
	MOVQ 8(AX), DX
	LEAQ (SI)(DX*4), DX
	MOVQ 16(AX), R8
	LEAQ (SI)(R8*4), R8
	MOVQ 24(AX), R9
	LEAQ (SI)(R9*4), R9
	MOVQ 32(AX), R10
	LEAQ (SI)(R10*4), R10
	MOVQ 40(AX), R11
	LEAQ (SI)(R11*4), R11
	MOVQ 48(AX), R12
	LEAQ (SI)(R12*4), R12
	MOVQ 56(AX), AX
	LEAQ (SI)(AX*4), SI

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

	// An odd k peels its first step, then the rest runs in pairs: the
	// steps still accumulate in order p = 0, 1, …, k-1.
	TESTQ $1, CX
	JZ    gpairs
	MOVQ (R13), AX
	VMOVUPS (DI), Y8
	VBROADCASTSS (BX)(AX*4), Y9
	VFMADD231PS Y8, Y9, Y0
	VBROADCASTSS (DX)(AX*4), Y9
	VFMADD231PS Y8, Y9, Y1
	VBROADCASTSS (R8)(AX*4), Y9
	VFMADD231PS Y8, Y9, Y2
	VBROADCASTSS (R9)(AX*4), Y9
	VFMADD231PS Y8, Y9, Y3
	VBROADCASTSS (R10)(AX*4), Y9
	VFMADD231PS Y8, Y9, Y4
	VBROADCASTSS (R11)(AX*4), Y9
	VFMADD231PS Y8, Y9, Y5
	VBROADCASTSS (R12)(AX*4), Y9
	VFMADD231PS Y8, Y9, Y6
	VBROADCASTSS (SI)(AX*4), Y9
	VFMADD231PS Y8, Y9, Y7
	ADDQ $8, R13
	ADDQ $32, DI

gpairs:
	SHRQ $1, CX              // pairs of k steps
	JZ   gstore

gpair:
	MOVQ (R13), AX
	VMOVUPS (DI), Y8
	VBROADCASTSS (BX)(AX*4), Y9
	VFMADD231PS Y8, Y9, Y0
	VBROADCASTSS (DX)(AX*4), Y9
	VFMADD231PS Y8, Y9, Y1
	VBROADCASTSS (R8)(AX*4), Y9
	VFMADD231PS Y8, Y9, Y2
	VBROADCASTSS (R9)(AX*4), Y9
	VFMADD231PS Y8, Y9, Y3
	VBROADCASTSS (R10)(AX*4), Y9
	VFMADD231PS Y8, Y9, Y4
	VBROADCASTSS (R11)(AX*4), Y9
	VFMADD231PS Y8, Y9, Y5
	VBROADCASTSS (R12)(AX*4), Y9
	VFMADD231PS Y8, Y9, Y6
	VBROADCASTSS (SI)(AX*4), Y9
	VFMADD231PS Y8, Y9, Y7

	MOVQ 8(R13), AX
	VMOVUPS 32(DI), Y10
	VBROADCASTSS (BX)(AX*4), Y11
	VFMADD231PS Y10, Y11, Y0
	VBROADCASTSS (DX)(AX*4), Y11
	VFMADD231PS Y10, Y11, Y1
	VBROADCASTSS (R8)(AX*4), Y11
	VFMADD231PS Y10, Y11, Y2
	VBROADCASTSS (R9)(AX*4), Y11
	VFMADD231PS Y10, Y11, Y3
	VBROADCASTSS (R10)(AX*4), Y11
	VFMADD231PS Y10, Y11, Y4
	VBROADCASTSS (R11)(AX*4), Y11
	VFMADD231PS Y10, Y11, Y5
	VBROADCASTSS (R12)(AX*4), Y11
	VFMADD231PS Y10, Y11, Y6
	VBROADCASTSS (SI)(AX*4), Y11
	VFMADD231PS Y10, Y11, Y7

	ADDQ $16, R13
	ADDQ $64, DI
	DECQ CX
	JNZ  gpair

gstore:
	MOVQ c+40(FP), DX
	MOVQ ldc+48(FP), R8
	SHLQ $2, R8              // row stride in bytes
	VMOVUPS (DX), Y8
	VADDPS  Y8, Y0, Y0
	VMOVUPS Y0, (DX)
	ADDQ    R8, DX
	VMOVUPS (DX), Y8
	VADDPS  Y8, Y1, Y1
	VMOVUPS Y1, (DX)
	ADDQ    R8, DX
	VMOVUPS (DX), Y8
	VADDPS  Y8, Y2, Y2
	VMOVUPS Y2, (DX)
	ADDQ    R8, DX
	VMOVUPS (DX), Y8
	VADDPS  Y8, Y3, Y3
	VMOVUPS Y3, (DX)
	ADDQ    R8, DX
	VMOVUPS (DX), Y8
	VADDPS  Y8, Y4, Y4
	VMOVUPS Y4, (DX)
	ADDQ    R8, DX
	VMOVUPS (DX), Y8
	VADDPS  Y8, Y5, Y5
	VMOVUPS Y5, (DX)
	ADDQ    R8, DX
	VMOVUPS (DX), Y8
	VADDPS  Y8, Y6, Y6
	VMOVUPS Y6, (DX)
	ADDQ    R8, DX
	VMOVUPS (DX), Y8
	VADDPS  Y8, Y7, Y7
	VMOVUPS Y7, (DX)

	VZEROUPPER
	RET
