//go:build amd64

#include "textflag.h"

// Fused ReLU + 2×2 pooling AVX2 kernels. Loops run 8 floats per
// iteration; callers guarantee len(dst) is a multiple of c and c a
// multiple of 8.

// func poolAvgAsm(dst, r0, r1 []float32, c int) bool
//
// One output row of fused ReLU + 2×2/stride-2 average pooling over
// interleaved-channel rows r0/r1: dst[x·c+ch] = mean of the clamped 2×2
// window. len(dst) must be a multiple of c, c a multiple of 8.
TEXT ·poolAvgAsm(SB), NOSPLIT, $0-81
	MOVQ  dst_base+0(FP), DI
	MOVQ  dst_len+8(FP), CX
	MOVQ  r0_base+24(FP), SI
	MOVQ  r1_base+48(FP), DX
	MOVQ  c+72(FP), R8
	MOVB  $1, ret+80(FP)
	VXORPS Y1, Y1, Y1
	MOVL  $0x3E800000, AX // 0.25f
	MOVL  AX, X2
	VBROADCASTSS X2, Y2
	LEAQ  (R8*4), R9      // channel-block stride in bytes

pavgx:
	TESTQ CX, CX
	JZ    pavgdone
	LEAQ  (SI)(R9*1), R11 // right column of the window
	LEAQ  (DX)(R9*1), R12
	XORQ  R10, R10

pavgj:
	VMOVUPS (SI)(R10*1), Y3
	VMAXPS Y1, Y3, Y3
	VMOVUPS (R11)(R10*1), Y4
	VMAXPS Y1, Y4, Y4
	VADDPS Y4, Y3, Y3
	VMOVUPS (DX)(R10*1), Y5
	VMAXPS Y1, Y5, Y5
	VADDPS Y5, Y3, Y3
	VMOVUPS (R12)(R10*1), Y6
	VMAXPS Y1, Y6, Y6
	VADDPS Y6, Y3, Y3
	VMULPS Y2, Y3, Y3
	VMOVUPS Y3, (DI)(R10*1)
	ADDQ   $32, R10
	CMPQ   R10, R9
	JLT    pavgj

	ADDQ  R9, DI
	LEAQ  (SI)(R9*2), SI
	LEAQ  (DX)(R9*2), DX
	SUBQ  R8, CX
	JMP   pavgx

pavgdone:
	VZEROUPPER
	RET

// func poolMaxAsm(dst, r0, r1 []float32, c int) bool
//
// Max-pool variant of poolAvgAsm: dst[x·c+ch] = max(0, window max).
TEXT ·poolMaxAsm(SB), NOSPLIT, $0-81
	MOVQ  dst_base+0(FP), DI
	MOVQ  dst_len+8(FP), CX
	MOVQ  r0_base+24(FP), SI
	MOVQ  r1_base+48(FP), DX
	MOVQ  c+72(FP), R8
	MOVB  $1, ret+80(FP)
	VXORPS Y1, Y1, Y1
	LEAQ  (R8*4), R9

pmaxx:
	TESTQ CX, CX
	JZ    pmaxdone
	LEAQ  (SI)(R9*1), R11
	LEAQ  (DX)(R9*1), R12
	XORQ  R10, R10

pmaxj:
	VMOVUPS (SI)(R10*1), Y3
	VMAXPS (R11)(R10*1), Y3, Y3
	VMAXPS (DX)(R10*1), Y3, Y3
	VMAXPS (R12)(R10*1), Y3, Y3
	VMAXPS Y1, Y3, Y3
	VMOVUPS Y3, (DI)(R10*1)
	ADDQ   $32, R10
	CMPQ   R10, R9
	JLT    pmaxj

	ADDQ  R9, DI
	LEAQ  (SI)(R9*2), SI
	LEAQ  (DX)(R9*2), DX
	SUBQ  R8, CX
	JMP   pmaxx

pmaxdone:
	VZEROUPPER
	RET
