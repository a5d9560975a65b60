// Package mat provides dense row-major float64 matrices and rank-3 tensors
// sized for the small attention models used throughout this repository.
//
// The package is deliberately minimal: it implements exactly the operations
// the neural-network, product-quantization, and tabularization layers need,
// with goroutine-parallel blocked matrix multiplication for the hot paths.
package mat

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major matrix of float64 values.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// New returns a zero-initialised Rows x Cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows x cols matrix.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: FromSlice length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Randn fills m with Gaussian noise of the given standard deviation.
func (m *Matrix) Randn(rng *rand.Rand, std float64) *Matrix {
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
	return m
}

// RandUniform fills m with uniform values in [-a, a].
func (m *Matrix) RandUniform(rng *rand.Rand, a float64) *Matrix {
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * a
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Row returns row i as a slice sharing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom copies src into m; shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic("mat: CopyFrom shape mismatch")
	}
	copy(m.Data, src.Data)
}

// Zero resets all elements to zero.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// parallelThreshold is the flop count above which matmul dispatches to the
// parallel blocked engine in parmul.go.
const parallelThreshold = 1 << 16

// MulInto computes dst = a * b. dst must not alias a or b. Above a size
// cutoff the multiply runs on the parallel blocked engine (see parmul.go);
// below it, a simple serial kernel avoids the engine's transpose overhead.
func MulInto(dst, a, b *Matrix) {
	checkMulInto(dst, a, b)
	dst.Zero()
	work := a.Rows * a.Cols * b.Cols
	if work < parallelThreshold {
		mulRange(dst, a, b, 0, a.Rows)
		return
	}
	dotEngine(dst, a, transposeData(b), b.Cols)
}

// mulRange computes rows [lo, hi) of dst = a*b using an ikj loop ordering,
// which keeps the inner loop sequential over b's rows for cache locality.
func mulRange(dst, a, b *Matrix, lo, hi int) {
	n, p := a.Cols, b.Cols
	for i := lo; i < hi; i++ {
		drow := dst.Data[i*p : (i+1)*p]
		arow := a.Data[i*n : (i+1)*n]
		for k := 0; k < n; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			brow := b.Data[k*p : (k+1)*p]
			for j, bv := range brow {
				drow[j] += aik * bv
			}
		}
	}
}

// Mul returns a new matrix a * b.
func Mul(a, b *Matrix) *Matrix {
	dst := New(a.Rows, b.Cols)
	MulInto(dst, a, b)
	return dst
}

// MulTransB returns a * bᵀ. The rows of b are already the engine's
// transposed layout, so the large-size path needs no transpose pass.
func MulTransB(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulTransB inner dims %d != %d", a.Cols, b.Cols))
	}
	dst := New(a.Rows, b.Rows)
	if a.Rows*a.Cols*b.Rows >= parallelThreshold {
		dotEngine(dst, a, b.Data, b.Rows)
		return dst
	}
	mulTransBRange(dst, a, b, 0, a.Rows)
	return dst
}

// mulTransBRange is the serial reference kernel for a * bᵀ.
func mulTransBRange(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var s float64
			for k, av := range arow {
				s += av * brow[k]
			}
			drow[j] = s
		}
	}
}

// MulTransA returns aᵀ * b. The large-size path transposes both operands
// into the engine's row-major dot-product layout.
func MulTransA(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: MulTransA inner dims %d != %d", a.Rows, b.Rows))
	}
	dst := New(a.Cols, b.Cols)
	if a.Cols*a.Rows*b.Cols >= parallelThreshold {
		at := FromSlice(a.Cols, a.Rows, transposeData(a))
		dotEngine(dst, at, transposeData(b), b.Cols)
		return dst
	}
	mulTransARange(dst, a, b)
	return dst
}

// mulTransARange is the serial reference kernel for aᵀ * b.
func mulTransARange(dst, a, b *Matrix) {
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			drow := dst.Row(i)
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// Add returns a + b as a new matrix.
func Add(a, b *Matrix) *Matrix {
	c := a.Clone()
	c.AddInPlace(b)
	return c
}

// AddInPlace adds b into m elementwise.
func (m *Matrix) AddInPlace(b *Matrix) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic("mat: AddInPlace shape mismatch")
	}
	for i, v := range b.Data {
		m.Data[i] += v
	}
}

// SubInPlace subtracts b from m elementwise.
func (m *Matrix) SubInPlace(b *Matrix) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic("mat: SubInPlace shape mismatch")
	}
	for i, v := range b.Data {
		m.Data[i] -= v
	}
}

// Sub returns a - b as a new matrix.
func Sub(a, b *Matrix) *Matrix {
	c := a.Clone()
	c.SubInPlace(b)
	return c
}

// Scale multiplies every element of m by s.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// AddRowVector adds vector v (length Cols) to every row of m.
func (m *Matrix) AddRowVector(v []float64) {
	if len(v) != m.Cols {
		panic("mat: AddRowVector length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, bv := range v {
			row[j] += bv
		}
	}
}

// RowSoftmax applies softmax independently to each row of m, in place.
func (m *Matrix) RowSoftmax() *Matrix {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		maxv := math.Inf(-1)
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(v - maxv)
			row[j] = e
			sum += e
		}
		if sum == 0 {
			continue
		}
		inv := 1 / sum
		for j := range row {
			row[j] *= inv
		}
	}
	return m
}

// CosineSimilarity computes the cosine similarity of the flattened matrices.
// It returns 0 when either operand is all-zero.
func CosineSimilarity(a, b *Matrix) float64 {
	if len(a.Data) != len(b.Data) {
		panic("mat: CosineSimilarity length mismatch")
	}
	var dot, na, nb float64
	for i, av := range a.Data {
		bv := b.Data[i]
		dot += av * bv
		na += av * av
		nb += bv * bv
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// SliceCols returns columns [lo, hi) of m as a new matrix.
func (m *Matrix) SliceCols(lo, hi int) *Matrix {
	if lo < 0 || hi > m.Cols || lo > hi {
		panic(fmt.Sprintf("mat: SliceCols [%d,%d) of %d cols", lo, hi, m.Cols))
	}
	out := New(m.Rows, hi-lo)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i)[lo:hi])
	}
	return out
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
}
