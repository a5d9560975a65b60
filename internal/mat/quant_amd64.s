//go:build amd64 && !purego

#include "textflag.h"

// Quantized-row kernels: reconstruct (or accumulate) a float64 row from an
// int8/int16 prototype row under an affine (scale, zero) pair. Eight entries
// per iteration: sign-extend to int32, subtract the broadcast zero point
// (exact, matching Go's int32 wrap), convert to float64 (exact), multiply by
// the broadcast scale, and — in the accumulate variants — add to the
// destination with a separate VADDPD. No FMA anywhere: the scalar fallback
// rounds after the multiply and after the add, and fusing them would break
// the scalar/vector bit-identity contract.

// func dequantRowInt8AVX(dst *float64, q *int8, n8 int, zero int32, scale float64)
TEXT ·dequantRowInt8AVX(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ q+8(FP), SI
	MOVQ n8+16(FP), CX
	MOVL zero+24(FP), AX
	MOVQ AX, X14
	VPBROADCASTD X14, Y14
	VBROADCASTSD scale+32(FP), Y15
	SHRQ $3, CX
loop8:
	VMOVQ (SI), X0               // 8 int8
	VPMOVSXBD X0, Y0             // sign-extend to 8 int32
	VPSUBD Y14, Y0, Y0           // q - zero
	VEXTRACTI128 $1, Y0, X1
	VCVTDQ2PD X0, Y2             // low 4 lanes to float64 (exact)
	VCVTDQ2PD X1, Y3             // high 4 lanes
	VMULPD Y15, Y2, Y2
	VMULPD Y15, Y3, Y3
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ $8, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  loop8
	VZEROUPPER
	RET

// func accumRowInt8AVX(dst *float64, q *int8, n8 int, zero int32, scale float64)
TEXT ·accumRowInt8AVX(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ q+8(FP), SI
	MOVQ n8+16(FP), CX
	MOVL zero+24(FP), AX
	MOVQ AX, X14
	VPBROADCASTD X14, Y14
	VBROADCASTSD scale+32(FP), Y15
	SHRQ $3, CX
loop8:
	VMOVQ (SI), X0
	VPMOVSXBD X0, Y0
	VPSUBD Y14, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VCVTDQ2PD X0, Y2
	VCVTDQ2PD X1, Y3
	VMULPD Y15, Y2, Y2
	VMULPD Y15, Y3, Y3
	VADDPD (DI), Y2, Y2          // separate add: two roundings, like scalar
	VADDPD 32(DI), Y3, Y3
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ $8, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  loop8
	VZEROUPPER
	RET

// func dequantRowInt16AVX(dst *float64, q *int16, n8 int, zero int32, scale float64)
TEXT ·dequantRowInt16AVX(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ q+8(FP), SI
	MOVQ n8+16(FP), CX
	MOVL zero+24(FP), AX
	MOVQ AX, X14
	VPBROADCASTD X14, Y14
	VBROADCASTSD scale+32(FP), Y15
	SHRQ $3, CX
loop8:
	VMOVDQU (SI), X0             // 8 int16
	VPMOVSXWD X0, Y0             // sign-extend to 8 int32
	VPSUBD Y14, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VCVTDQ2PD X0, Y2
	VCVTDQ2PD X1, Y3
	VMULPD Y15, Y2, Y2
	VMULPD Y15, Y3, Y3
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ $16, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  loop8
	VZEROUPPER
	RET

// func accumRowInt16AVX(dst *float64, q *int16, n8 int, zero int32, scale float64)
TEXT ·accumRowInt16AVX(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ q+8(FP), SI
	MOVQ n8+16(FP), CX
	MOVL zero+24(FP), AX
	MOVQ AX, X14
	VPBROADCASTD X14, Y14
	VBROADCASTSD scale+32(FP), Y15
	SHRQ $3, CX
loop8:
	VMOVDQU (SI), X0
	VPMOVSXWD X0, Y0
	VPSUBD Y14, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VCVTDQ2PD X0, Y2
	VCVTDQ2PD X1, Y3
	VMULPD Y15, Y2, Y2
	VMULPD Y15, Y3, Y3
	VADDPD (DI), Y2, Y2
	VADDPD 32(DI), Y3, Y3
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ $16, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  loop8
	VZEROUPPER
	RET
