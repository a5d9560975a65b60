//go:build !amd64 || purego

package mat

// The quantized-row vector kernels are never called when useVectorKernel is
// false; the wrappers in quant.go fall back to the portable scalar loops,
// which produce bit-identical results.

func dequantRowInt8AVX(dst *float64, q *int8, n8 int, zero int32, scale float64) {
	panic("mat: quant vector kernel unavailable on this architecture")
}

func accumRowInt8AVX(dst *float64, q *int8, n8 int, zero int32, scale float64) {
	panic("mat: quant vector kernel unavailable on this architecture")
}

func dequantRowInt16AVX(dst *float64, q *int16, n8 int, zero int32, scale float64) {
	panic("mat: quant vector kernel unavailable on this architecture")
}

func accumRowInt16AVX(dst *float64, q *int16, n8 int, zero int32, scale float64) {
	panic("mat: quant vector kernel unavailable on this architecture")
}
