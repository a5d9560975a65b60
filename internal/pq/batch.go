package pq

import (
	"fmt"

	"dart/internal/mat"
	"dart/internal/par"
)

// encodeGrain is the minimum number of rows a worker takes per chunk; a
// single row encode is cheap, so tiny batches stay on the calling goroutine.
const encodeGrain = 16

// EncodeBatch encodes every row of x with enc, returning one index slice per
// row (all backed by a single allocation). Rows are independent, so the
// batch fans out through par.For; each row's encoding is
// exactly what EncodeRow produces, for any worker count.
func EncodeBatch(enc Encoder, x *mat.Matrix) [][]int {
	c := enc.C()
	if d := enc.C() * enc.SubDim(); x.Cols != d {
		panic(fmt.Sprintf("pq: EncodeBatch on %d-dim rows, encoder expects %d", x.Cols, d))
	}
	flat := make([]int, x.Rows*c)
	out := make([][]int, x.Rows)
	for i := range out {
		out[i] = flat[i*c : (i+1)*c : (i+1)*c]
	}
	par.For(x.Rows, encodeGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			enc.EncodeRow(x.Row(i), out[i])
		}
	})
	return out
}
