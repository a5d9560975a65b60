package mat

import (
	"math/rand"
	"testing"
)

// scalarDequant is the portable reference the vector kernels must match
// bit-for-bit: one rounding in the multiply, one in the accumulate add.
func scalarDequant(dst []float64, q []int32, zero int32, scale float64, accum bool) {
	for i := range dst {
		v := float64(q[i]-zero) * scale
		if accum {
			dst[i] += v
		} else {
			dst[i] = v
		}
	}
}

// TestQuantRowKernelsBitIdentical runs every row kernel against the scalar
// reference across lengths straddling the 8-wide vector body and its tail,
// including negative values, extreme quantized codes, and a zero point that
// exercises the int32 subtract. On hosts without the vector kernel the
// wrappers are the scalar loop and the test is a tautology — the point is
// that on AVX2 hosts it is not.
func TestQuantRowKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 3, 7, 8, 9, 15, 16, 31, 33, 64, 100} {
		q8 := make([]int8, n)
		q16 := make([]int16, n)
		ref := make([]int32, n)
		for i := 0; i < n; i++ {
			q8[i] = int8(rng.Intn(256) - 128)
			q16[i] = int16(rng.Intn(1<<16) - (1 << 15))
		}
		base := make([]float64, n)
		for i := range base {
			base[i] = rng.NormFloat64()
		}
		for _, zero := range []int32{0, -128, 127, 19, -32768, 32767} {
			for _, scale := range []float64{0.037, -1.5, 1e-9, 3e4} {
				check := func(name string, got, want []float64) {
					t.Helper()
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s n=%d zero=%d scale=%v: [%d] = %v, want %v",
								name, n, zero, scale, i, got[i], want[i])
						}
					}
				}
				got := make([]float64, n)
				want := make([]float64, n)

				for i, v := range q8 {
					ref[i] = int32(v)
				}
				DequantRowInt8(got, q8, zero, scale)
				scalarDequant(want, ref, zero, scale, false)
				check("DequantRowInt8", got, want)
				copy(got, base)
				copy(want, base)
				AccumRowInt8(got, q8, zero, scale)
				scalarDequant(want, ref, zero, scale, true)
				check("AccumRowInt8", got, want)

				for i, v := range q16 {
					ref[i] = int32(v)
				}
				DequantRowInt16(got, q16, zero, scale)
				scalarDequant(want, ref, zero, scale, false)
				check("DequantRowInt16", got, want)
				copy(got, base)
				copy(want, base)
				AccumRowInt16(got, q16, zero, scale)
				scalarDequant(want, ref, zero, scale, true)
				check("AccumRowInt16", got, want)
			}
		}
	}
}

// TestQuantRowKernelsNoAlloc pins the zero-allocation contract of the row
// kernels: they run inside every quantized table lookup on the serving hot
// path.
func TestQuantRowKernelsNoAlloc(t *testing.T) {
	dst := make([]float64, 96)
	q8 := make([]int8, 96)
	q16 := make([]int16, 96)
	if n := testing.AllocsPerRun(100, func() {
		DequantRowInt8(dst, q8, 3, 0.25)
		AccumRowInt8(dst, q8, 3, 0.25)
		DequantRowInt16(dst, q16, 3, 0.25)
		AccumRowInt16(dst, q16, 3, 0.25)
	}); n != 0 {
		t.Fatalf("row kernels allocate %v times per run", n)
	}
}
