package nn

import (
	"math"

	"dart/internal/mat"
)

// LayerNorm normalises each sequence position over the feature dimension and
// applies a learned affine transform: y = γ·(x-μ)/√(σ²+ε) + β.
type LayerNorm struct {
	D     int
	Gamma *Param // [1, D]
	Beta  *Param // [1, D]
	Eps   float64
}

// NewLayerNorm constructs a layer norm over dimension d with γ=1, β=0.
func NewLayerNorm(name string, d int) *LayerNorm {
	ln := &LayerNorm{
		D:     d,
		Gamma: newParam(name+".gamma", 1, d),
		Beta:  newParam(name+".beta", 1, d),
		Eps:   1e-5,
	}
	for i := range ln.Gamma.W.Data {
		ln.Gamma.W.Data[i] = 1
	}
	return ln
}

// Forward normalises every row of the flattened (N*T, D) view.
func (ln *LayerNorm) Forward(x *mat.Tensor) *mat.Tensor {
	y, _ := ln.Train(x)
	return y
}

// Train normalises every row of the flattened (N*T, D) view; its Backprop
// implements the standard layer-norm gradient.
func (ln *LayerNorm) Train(x *mat.Tensor) (*mat.Tensor, Backprop) {
	xm := x.AsMatrix()
	rows := xm.Rows
	xhat := mat.New(rows, ln.D)     // normalised input
	invStd := make([]float64, rows) // 1/√(σ²+ε) per row
	out := mat.New(rows, ln.D)
	g := ln.Gamma.W.Data
	b := ln.Beta.W.Data
	for i := 0; i < rows; i++ {
		row := xm.Row(i)
		var mean float64
		for _, v := range row {
			mean += v
		}
		mean /= float64(ln.D)
		var vr float64
		for _, v := range row {
			d := v - mean
			vr += d * d
		}
		vr /= float64(ln.D)
		inv := 1 / math.Sqrt(vr+ln.Eps)
		invStd[i] = inv
		xh := xhat.Row(i)
		orow := out.Row(i)
		for j, v := range row {
			h := (v - mean) * inv
			xh[j] = h
			orow[j] = g[j]*h + b[j]
		}
	}
	return mat.TensorFromSlice(x.N, x.T, ln.D, out.Data), func(grad *mat.Tensor) *mat.Tensor {
		gm := grad.AsMatrix()
		dx := mat.New(rows, ln.D)
		invD := 1 / float64(ln.D)
		for i := 0; i < rows; i++ {
			grow := gm.Row(i)
			xh := xhat.Row(i)
			// Parameter gradients.
			for j, gv := range grow {
				ln.Gamma.G.Data[j] += gv * xh[j]
				ln.Beta.G.Data[j] += gv
			}
			// dxhat = grad * gamma
			var sumDx, sumDxXh float64
			orow := dx.Row(i)
			for j, gv := range grow {
				dxh := gv * g[j]
				orow[j] = dxh
				sumDx += dxh
				sumDxXh += dxh * xh[j]
			}
			inv := invStd[i]
			for j := range orow {
				orow[j] = inv * (orow[j] - sumDx*invD - xh[j]*sumDxXh*invD)
			}
		}
		return mat.TensorFromSlice(x.N, x.T, ln.D, dx.Data)
	}
}

// Params returns γ and β.
func (ln *LayerNorm) Params() []*Param { return []*Param{ln.Gamma, ln.Beta} }

// Name reports the layer name.
func (ln *LayerNorm) Name() string { return ln.Gamma.Name[:len(ln.Gamma.Name)-len(".gamma")] }
