package pq

import "dart/internal/mat"

// Quantize returns the quantized reconstruction of a (its nearest prototype
// per subspace, concatenated). Useful for measuring quantization error.
func Quantize(enc Encoder, a []float64) []float64 {
	c, v := enc.C(), enc.SubDim()
	out := make([]float64, c*v)
	idx := make([]int, c)
	enc.EncodeRow(a, idx)
	for ci, ki := range idx {
		copy(out[ci*v:(ci+1)*v], enc.Center(ci, ki))
	}
	return out
}

// QuantizationMSE measures the mean squared reconstruction error of the
// encoder over the rows of x.
func QuantizationMSE(enc Encoder, x *mat.Matrix) float64 {
	if x.Rows == 0 {
		return 0
	}
	var total float64
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		q := Quantize(enc, row)
		for j, v := range row {
			d := v - q[j]
			total += d * d
		}
	}
	return total / float64(x.Rows*x.Cols)
}
