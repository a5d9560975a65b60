//go:build amd64 && !purego

#include "textflag.h"

// func cpuHasAVX2FMA() bool
//
// Feature check for the vector micro-kernel: AVX + FMA + OSXSAVE from CPUID
// leaf 1, YMM state enablement from XCR0, and AVX2 from leaf 7. CPUID and
// XGETBV clobber only AX/BX/CX/DX, which are scratch in ABI0.
TEXT ·cpuHasAVX2FMA(SB), NOSPLIT, $0-1
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	MOVL CX, DX
	ANDL $(1<<27 | 1<<28 | 1<<12), DX   // OSXSAVE | AVX | FMA
	CMPL DX, $(1<<27 | 1<<28 | 1<<12)
	JNE  nofeat
	MOVL $0, CX
	XGETBV
	ANDL $6, AX                         // XMM and YMM state enabled by the OS
	CMPL AX, $6
	JNE  nofeat
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	ANDL $(1<<5), BX                    // AVX2
	JZ   nofeat
	MOVB $1, ret+0(FP)
	RET
nofeat:
	MOVB $0, ret+0(FP)
	RET

// func dotTile4x2AVX(a0, a1, a2, a3, b0, b1 *float64, n4 int, out *[8]float64)
//
// Computes the eight dot products of four row vectors (a0..a3) against two
// column vectors (b0, b1) over the first n4 elements; n4 must be a positive
// multiple of 4. Each product accumulates into four independent YMM lanes in
// ascending-k order and is reduced at the end in a fixed lane order
// ((l0+l2)+(l1+l3)), so results are fully deterministic for a given input.
// out receives c00,c01,c10,c11,c20,c21,c30,c31 where c_rc = a_r · b_c.
TEXT ·dotTile4x2AVX(SB), NOSPLIT, $0-64
	MOVQ a0+0(FP), R8
	MOVQ a1+8(FP), R9
	MOVQ a2+16(FP), R10
	MOVQ a3+24(FP), R11
	MOVQ b0+32(FP), R12
	MOVQ b1+40(FP), R13
	MOVQ n4+48(FP), CX
	MOVQ out+56(FP), DI

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	SHRQ $2, CX
	JZ   reduce

loop:
	VMOVUPD (R12), Y8
	VMOVUPD (R13), Y9
	VMOVUPD (R8), Y10
	VFMADD231PD Y8, Y10, Y0
	VFMADD231PD Y9, Y10, Y1
	VMOVUPD (R9), Y11
	VFMADD231PD Y8, Y11, Y2
	VFMADD231PD Y9, Y11, Y3
	VMOVUPD (R10), Y12
	VFMADD231PD Y8, Y12, Y4
	VFMADD231PD Y9, Y12, Y5
	VMOVUPD (R11), Y13
	VFMADD231PD Y8, Y13, Y6
	VFMADD231PD Y9, Y13, Y7
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $32, R12
	ADDQ $32, R13
	DECQ CX
	JNZ  loop

reduce:
	VEXTRACTF128 $1, Y0, X8
	VADDPD  X8, X0, X0
	VHADDPD X0, X0, X0
	VEXTRACTF128 $1, Y1, X8
	VADDPD  X8, X1, X1
	VHADDPD X1, X1, X1
	VEXTRACTF128 $1, Y2, X8
	VADDPD  X8, X2, X2
	VHADDPD X2, X2, X2
	VEXTRACTF128 $1, Y3, X8
	VADDPD  X8, X3, X3
	VHADDPD X3, X3, X3
	VEXTRACTF128 $1, Y4, X8
	VADDPD  X8, X4, X4
	VHADDPD X4, X4, X4
	VEXTRACTF128 $1, Y5, X8
	VADDPD  X8, X5, X5
	VHADDPD X5, X5, X5
	VEXTRACTF128 $1, Y6, X8
	VADDPD  X8, X6, X6
	VHADDPD X6, X6, X6
	VEXTRACTF128 $1, Y7, X8
	VADDPD  X8, X7, X7
	VHADDPD X7, X7, X7
	VMOVSD X0, 0(DI)
	VMOVSD X1, 8(DI)
	VMOVSD X2, 16(DI)
	VMOVSD X3, 24(DI)
	VMOVSD X4, 32(DI)
	VMOVSD X5, 40(DI)
	VMOVSD X6, 48(DI)
	VMOVSD X7, 56(DI)
	VZEROUPPER
	RET
