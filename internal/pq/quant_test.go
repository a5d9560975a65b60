package pq

import (
	"math"
	"math/rand"
	"testing"
)

// TestFitRowQuantRoundTrip: quantize-dequantize error is bounded by half a
// quantization step for in-range values, for both widths and for rows whose
// range is dominated by offset (the bias-folded case the affine form exists
// for).
func TestFitRowQuantRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows := [][]float64{
		make([]float64, 40),
		make([]float64, 40),
		make([]float64, 7),
	}
	for i := range rows[0] {
		rows[0][i] = rng.NormFloat64()
	}
	for i := range rows[1] {
		rows[1][i] = 1000 + 0.5*rng.NormFloat64() // offset-dominated
	}
	for i := range rows[2] {
		rows[2][i] = rng.Float64() * 1e-6
	}
	for _, bits := range []int{8, 16} {
		for ri, row := range rows {
			q := FitRowQuant(row, bits)
			if q.Scale <= 0 {
				t.Fatalf("bits=%d row=%d: non-positive scale %v", bits, ri, q.Scale)
			}
			for i, v := range row {
				back := q.dequantize(q.Quantize(v, bits))
				if math.Abs(back-v) > q.Scale/2+1e-12 {
					t.Fatalf("bits=%d row=%d [%d]: %v -> %v, err %v > step/2 %v",
						bits, ri, i, v, back, math.Abs(back-v), q.Scale/2)
				}
			}
		}
	}
}

// TestFitRowQuantDegenerate: constant rows reconstruct exactly — every entry
// of a one-prototype subspace or an all-bias row must survive quantization
// bit-for-bit.
func TestFitRowQuantDegenerate(t *testing.T) {
	for _, v := range []float64{0, 1, -3.75, 1e-300, 42} {
		row := []float64{v, v, v}
		for _, bits := range []int{8, 16} {
			q := FitRowQuant(row, bits)
			if got := q.dequantize(q.Quantize(v, bits)); got != v {
				t.Fatalf("constant row %v at %d bits reconstructs to %v", v, bits, got)
			}
		}
	}
	if q := FitRowQuant(nil, 8); q.Scale != 1 || q.Zero != 0 {
		t.Fatalf("empty row fit %+v", q)
	}
}

// TestQuantizeClamps: out-of-range values saturate at the domain edges
// instead of wrapping.
func TestQuantizeClamps(t *testing.T) {
	q := FitRowQuant([]float64{-1, 1}, 8)
	qmin, qmax := QuantRange(8)
	if got := q.Quantize(100, 8); got != qmax {
		t.Fatalf("over-range quantized to %d, want %d", got, qmax)
	}
	if got := q.Quantize(-100, 8); got != qmin {
		t.Fatalf("under-range quantized to %d, want %d", got, qmin)
	}
}

// TestUnmarshalEncoderRejectsMalformedDims: crafted states with zero,
// negative, or indivisible dimensions must return errors — the constructors
// panic on these, and serialized state is corruption-facing input that must
// never reach them.
func TestUnmarshalEncoderRejectsMalformedDims(t *testing.T) {
	cases := []struct {
		name string
		st   encoderState
	}{
		{"zero D", encoderState{Kind: "kmeans", D: 0, C: 1, K: 4}},
		{"negative D", encoderState{Kind: "lsh", D: -8, C: 1, K: 4}},
		{"zero C", encoderState{Kind: "kmeans", D: 8, C: 0, K: 4}},
		{"negative C", encoderState{Kind: "lsh", D: 8, C: -2, K: 4}},
		{"zero K", encoderState{Kind: "kmeans", D: 8, C: 1, K: 0}},
		{"negative K", encoderState{Kind: "lsh", D: 8, C: 1, K: -4}},
		{"C does not divide D", encoderState{Kind: "kmeans", D: 10, C: 3, K: 4}},
		{"lsh K not power of two", encoderState{Kind: "lsh", D: 8, C: 1, K: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("UnmarshalEncoder panicked: %v", r)
				}
			}()
			if _, err := UnmarshalEncoder(tc.st); err == nil {
				t.Fatalf("state %+v unmarshalled without error", tc.st)
			}
		})
	}
}

// dequantize maps a stored integer back to float64, as the serving kernels
// do: (q - zero) * scale, one multiply, one rounding.
func (q RowQuant) dequantize(v int32) float64 {
	return float64(v-q.Zero) * q.Scale
}
