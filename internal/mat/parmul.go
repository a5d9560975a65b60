package mat

import (
	"fmt"

	"dart/internal/par"
)

// The parallel matmul engine computes dst[i][j] += a.Row(i) · bt.Row(j),
// where bt holds the right-hand operand with its columns laid out as rows so
// both operands stream contiguously. Work is split over groups of tileRows
// output rows anchored at absolute offsets (rows [0,4), [4,8), ...): par.For
// hands each goroutine a contiguous span of whole groups, every
// group's reduction runs serially in ascending-k order, and a fixed-width
// register tile (4x2 scalar, or the AVX2+FMA micro-kernel on amd64) computes
// the dot products. Because a group's output depends only on its inputs and
// the fixed tile shape — never on which worker runs it — results are
// bit-identical for any worker count, including fully serial runs.
const (
	tileRows  = 4  // output rows per group (matches the micro-kernel)
	panelCols = 64 // bt rows per cache panel, kept hot across a group span
)

// checkMulInto validates dst = a * b shapes (shared with MulInto).
func checkMulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul inner dims %d != %d", a.Cols, b.Rows))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("mat: Mul dst shape mismatch")
	}
}

// transposeData returns b's data transposed ([Cols][Rows], row-major),
// blocked for cache friendliness.
func transposeData(b *Matrix) []float64 {
	n, p := b.Rows, b.Cols
	bt := make([]float64, n*p)
	const blk = 32
	for ii := 0; ii < n; ii += blk {
		ihi := min(ii+blk, n)
		for jj := 0; jj < p; jj += blk {
			jhi := min(jj+blk, p)
			for i := ii; i < ihi; i++ {
				row := b.Data[i*p:]
				for j := jj; j < jhi; j++ {
					bt[j*n+i] = row[j]
				}
			}
		}
	}
	return bt
}

// dotEngine adds a · btᵀ into dst, where bt is p rows of length a.Cols.
// dst must already hold the values the products accumulate onto (zeros for
// a plain multiply).
func dotEngine(dst, a *Matrix, bt []float64, p int) {
	rows := a.Rows
	if rows == 0 || p == 0 {
		return
	}
	groups := (rows + tileRows - 1) / tileRows
	par.For(groups, 1, func(glo, ghi int) {
		dotGroups(dst, a, bt, p, glo, ghi)
	})
}

// dotGroups computes output-row groups [glo, ghi). The bt panel loop sits
// outside the group loop so a panel stays cache-hot across the whole span;
// per output element the reduction order is unaffected (each (group, panel)
// pair owns its dst elements exclusively).
func dotGroups(dst, a *Matrix, bt []float64, p, glo, ghi int) {
	rows, n := a.Rows, a.Cols
	for jj := 0; jj < p; jj += panelCols {
		jhi := min(jj+panelCols, p)
		for g := glo; g < ghi; g++ {
			i := g * tileRows
			if i+tileRows <= rows {
				dotGroup4(dst, a, bt, n, p, i, jj, jhi)
			} else {
				dotGroupTail(dst, a, bt, n, p, i, rows, jj, jhi)
			}
		}
	}
}

// dotGroup4 handles one full 4-row group against bt rows [jj, jhi).
func dotGroup4(dst, a *Matrix, bt []float64, n, p, i, jj, jhi int) {
	a0 := a.Data[(i+0)*n : (i+1)*n]
	a1 := a.Data[(i+1)*n : (i+2)*n]
	a2 := a.Data[(i+2)*n : (i+3)*n]
	a3 := a.Data[(i+3)*n : (i+4)*n]
	n4 := n &^ 3
	var c [8]float64
	j := jj
	for ; j+2 <= jhi; j += 2 {
		b0 := bt[(j+0)*n : (j+1)*n]
		b1 := bt[(j+1)*n : (j+2)*n]
		if useVectorKernel && n4 > 0 {
			dotTile4x2AVX(&a0[0], &a1[0], &a2[0], &a3[0], &b0[0], &b1[0], n4, &c)
			for k := n4; k < n; k++ {
				x0, x1 := b0[k], b1[k]
				c[0] += a0[k] * x0
				c[1] += a0[k] * x1
				c[2] += a1[k] * x0
				c[3] += a1[k] * x1
				c[4] += a2[k] * x0
				c[5] += a2[k] * x1
				c[6] += a3[k] * x0
				c[7] += a3[k] * x1
			}
		} else {
			dotTile4x2(a0, a1, a2, a3, b0, b1, &c)
		}
		dst.Data[(i+0)*p+j] += c[0]
		dst.Data[(i+0)*p+j+1] += c[1]
		dst.Data[(i+1)*p+j] += c[2]
		dst.Data[(i+1)*p+j+1] += c[3]
		dst.Data[(i+2)*p+j] += c[4]
		dst.Data[(i+2)*p+j+1] += c[5]
		dst.Data[(i+3)*p+j] += c[6]
		dst.Data[(i+3)*p+j+1] += c[7]
	}
	if j < jhi {
		brow := bt[j*n : (j+1)*n]
		var c0, c1, c2, c3 float64
		for k, x := range brow {
			c0 += a0[k] * x
			c1 += a1[k] * x
			c2 += a2[k] * x
			c3 += a3[k] * x
		}
		dst.Data[(i+0)*p+j] += c0
		dst.Data[(i+1)*p+j] += c1
		dst.Data[(i+2)*p+j] += c2
		dst.Data[(i+3)*p+j] += c3
	}
}

// dotTile4x2 is the portable scalar tile: eight independent ascending-k
// accumulator chains, the fallback when the assembly kernel is unavailable.
func dotTile4x2(a0, a1, a2, a3, b0, b1 []float64, c *[8]float64) {
	var c00, c01, c10, c11, c20, c21, c30, c31 float64
	for k, x0 := range b0 {
		x1 := b1[k]
		v0, v1, v2, v3 := a0[k], a1[k], a2[k], a3[k]
		c00 += v0 * x0
		c01 += v0 * x1
		c10 += v1 * x0
		c11 += v1 * x1
		c20 += v2 * x0
		c21 += v2 * x1
		c30 += v3 * x0
		c31 += v3 * x1
	}
	c[0], c[1], c[2], c[3] = c00, c01, c10, c11
	c[4], c[5], c[6], c[7] = c20, c21, c30, c31
}

// dotGroupTail handles the final partial group (1-3 rows) with plain
// ascending-k dot products.
func dotGroupTail(dst, a *Matrix, bt []float64, n, p, ilo, ihi, jj, jhi int) {
	for i := ilo; i < ihi; i++ {
		arow := a.Data[i*n : (i+1)*n]
		drow := dst.Data[i*p : (i+1)*p]
		for j := jj; j < jhi; j++ {
			brow := bt[j*n : (j+1)*n]
			var c float64
			for k, x := range brow {
				c += arow[k] * x
			}
			drow[j] += c
		}
	}
}
