package nn

import (
	"fmt"
	"math"
	"math/rand"

	"dart/internal/mat"
)

// Linear is a fully connected layer applied independently at every sequence
// position: y[t] = x[t]·Wᵀ + b, matching the paper's Linear(X) = WX + B with
// weight W of shape [DO, DI] (Eq. 1).
type Linear struct {
	In, Out int
	Weight  *Param // [Out, In]
	Bias    *Param // [1, Out]
}

// NewLinear constructs a linear layer with Kaiming-uniform initialisation.
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	l := &Linear{
		In:     in,
		Out:    out,
		Weight: newParam(name+".weight", out, in),
		Bias:   newParam(name+".bias", 1, out),
	}
	bound := math.Sqrt(6.0 / float64(in))
	l.Weight.W.RandUniform(rng, bound)
	return l
}

// Forward computes y = x Wᵀ + b on the flattened (N*T, In) view.
func (l *Linear) Forward(x *mat.Tensor) *mat.Tensor {
	y, _ := l.Train(x)
	return y
}

// Train computes y = x Wᵀ + b; its Backprop accumulates dW = dYᵀX and
// db = Σ dY rows, and returns dX = dY·W.
func (l *Linear) Train(x *mat.Tensor) (*mat.Tensor, Backprop) {
	if x.D != l.In {
		panic(fmt.Sprintf("nn: linear %s expects D=%d, got %d", l.Name(), l.In, x.D))
	}
	xm := x.AsMatrix()
	y := mat.MulTransB(xm, l.Weight.W) // (N*T, Out)
	y.AddRowVector(l.Bias.W.Data)
	return mat.TensorFromSlice(x.N, x.T, l.Out, y.Data), func(grad *mat.Tensor) *mat.Tensor {
		g := grad.AsMatrix()
		// dW [Out, In] = gᵀ [Out, N*T] * x [N*T, In]
		l.Weight.G.AddInPlace(mat.MulTransA(g, xm))
		for i := 0; i < g.Rows; i++ {
			row := g.Row(i)
			for j, v := range row {
				l.Bias.G.Data[j] += v
			}
		}
		dx := mat.Mul(g, l.Weight.W) // (N*T, In)
		return mat.TensorFromSlice(x.N, x.T, l.In, dx.Data)
	}
}

// Params returns the weight and bias.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// Name reports the layer name.
func (l *Linear) Name() string { return l.Weight.Name[:len(l.Weight.Name)-len(".weight")] }
