package mat

import "math"

// equalApprox reports whether a and b have identical shape and elementwise
// differences no larger than tol.
func equalApprox(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// transpose returns mᵀ, the reference the transposed products are checked
// against.
func transpose(m *Matrix) *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			t.Data[j*m.Rows+i] = v
		}
	}
	return t
}

// maxAbs returns the largest absolute element value.
func maxAbs(m *Matrix) float64 {
	var s float64
	for _, v := range m.Data {
		s = math.Max(s, math.Abs(v))
	}
	return s
}

// parMulInto computes dst = a * b on the parallel blocked engine regardless
// of operand size, forcing the engine MulInto uses only above its size
// cutoff. dst must not alias a or b.
func parMulInto(dst, a, b *Matrix) {
	checkMulInto(dst, a, b)
	dst.Zero()
	dotEngine(dst, a, transposeData(b), b.Cols)
}

// sum returns the sum of all elements.
func sum(m *Matrix) float64 {
	var s float64
	for _, v := range m.Data {
		s += v
	}
	return s
}
