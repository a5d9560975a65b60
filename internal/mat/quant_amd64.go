//go:build amd64 && !purego

package mat

// The quantized-row kernels share the AVX2 feature gate with the matmul
// micro-kernel (useVectorKernel in kernel_amd64.go): they need AVX2 for the
// 256-bit integer sign-extend/subtract, and gating both on one answer keeps
// "vector on/off" a single per-process fact. n8 must be a positive multiple
// of 8. Implemented in quant_amd64.s.

//go:noescape
func dequantRowInt8AVX(dst *float64, q *int8, n8 int, zero int32, scale float64)

//go:noescape
func accumRowInt8AVX(dst *float64, q *int8, n8 int, zero int32, scale float64)

//go:noescape
func dequantRowInt16AVX(dst *float64, q *int16, n8 int, zero int32, scale float64)

//go:noescape
func accumRowInt16AVX(dst *float64, q *int16, n8 int, zero int32, scale float64)
