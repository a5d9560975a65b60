package pq

import "math"

// Per-prototype-row affine quantization for the tabular serving kernels.
// Each prototype row of a lookup table (the Out-wide slice one encoded index
// selects) gets its own scale and zero point, fitted from the row's value
// range the same way the codebook machinery fits prototypes from subspace
// value ranges: the bias folded into subspace 0 shifts whole rows, so a
// shared symmetric scale would waste most of the integer range on offset.
//
// Dequantization is (q - zero) * scale in float64. Both factors are stored
// exactly (scale as float64, zero as int32), so the dequantized value of a
// stored entry is fully determined by the quantized payload — queries through
// a saved/recovered table are bit-identical to the table that produced it.

// RowQuant is the affine quantization of one prototype row.
type RowQuant struct {
	Scale float64
	Zero  int32
}

// QuantRange returns the signed integer domain [qmin, qmax] of a bit width.
func QuantRange(bits int) (int32, int32) {
	return -(1 << (bits - 1)), 1<<(bits-1) - 1
}

// FitRowQuant fits the affine quantization of one table row at the given bit
// width (8 or 16): scale spans the row's value range over the full signed
// integer domain and zero maps the row minimum onto qmin. Degenerate rows
// (constant value) get an exact representation.
func FitRowQuant(row []float64, bits int) RowQuant {
	qmin, qmax := QuantRange(bits)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range row {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if !(hi > lo) { // constant (or empty) row
		if len(row) == 0 || lo == 0 {
			return RowQuant{Scale: 1, Zero: 0}
		}
		// scale = v, zero = 0: every entry quantizes to 1 and dequantizes
		// back to v exactly.
		return RowQuant{Scale: lo, Zero: 0}
	}
	scale := (hi - lo) / float64(qmax-qmin)
	z := float64(qmin) - lo/scale
	// A huge offset-to-span ratio cannot be represented affinely in int32;
	// clamp and let Quantize saturate rather than wrap.
	if z > math.MaxInt32 {
		z = math.MaxInt32
	} else if z < math.MinInt32 {
		z = math.MinInt32
	}
	return RowQuant{Scale: scale, Zero: int32(math.Round(z))}
}

// Quantize maps a value into the signed integer domain of the bit width:
// clamp(round(v/scale) + zero, qmin, qmax).
func (q RowQuant) Quantize(v float64, bits int) int32 {
	qmin, qmax := QuantRange(bits)
	x := math.Round(v/q.Scale) + float64(q.Zero)
	if x < float64(qmin) {
		return qmin
	}
	if x > float64(qmax) {
		return qmax
	}
	return int32(x)
}
