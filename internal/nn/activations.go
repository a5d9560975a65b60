package nn

import (
	"math"

	"dart/internal/mat"
)

// ReLU is the rectified-linear activation applied elementwise.
type ReLU struct{}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward zeroes negative activations.
func (r *ReLU) Forward(x *mat.Tensor) *mat.Tensor {
	y, _ := r.Train(x)
	return y
}

// Train zeroes negative activations; its Backprop gates the incoming
// gradient by the pass-through mask.
func (r *ReLU) Train(x *mat.Tensor) (*mat.Tensor, Backprop) {
	out := x.Clone()
	mask := make([]bool, len(out.Data))
	for i, v := range out.Data {
		if v > 0 {
			mask[i] = true
		} else {
			out.Data[i] = 0
		}
	}
	return out, func(grad *mat.Tensor) *mat.Tensor {
		out := grad.Clone()
		for i := range out.Data {
			if !mask[i] {
				out.Data[i] = 0
			}
		}
		return out
	}
}

// Params returns nil; ReLU is parameter-free.
func (r *ReLU) Params() []*Param { return nil }

// Name reports the layer name.
func (r *ReLU) Name() string { return "relu" }

// SigmoidFn is the scalar logistic function.
func SigmoidFn(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Sigmoid is the logistic activation applied elementwise.
type Sigmoid struct{}

// Forward applies the logistic function.
func (s *Sigmoid) Forward(x *mat.Tensor) *mat.Tensor {
	y, _ := s.Train(x)
	return y
}

// Train applies the logistic function; its Backprop uses
// σ'(x) = σ(x)(1-σ(x)) on the outputs.
func (s *Sigmoid) Train(x *mat.Tensor) (*mat.Tensor, Backprop) {
	out := x.Clone()
	for i, v := range out.Data {
		out.Data[i] = SigmoidFn(v)
	}
	return out, func(grad *mat.Tensor) *mat.Tensor {
		g := grad.Clone()
		for i, y := range out.Data {
			g.Data[i] *= y * (1 - y)
		}
		return g
	}
}

// Params returns nil; Sigmoid is parameter-free.
func (s *Sigmoid) Params() []*Param { return nil }

// Name reports the layer name.
func (s *Sigmoid) Name() string { return "sigmoid" }

// MeanPool averages over the sequence dimension, mapping [N, T, D] to
// [N, 1, D]. It feeds the classification head that emits the delta bitmap.
type MeanPool struct{}

// NewMeanPool returns a MeanPool layer.
func NewMeanPool() *MeanPool { return &MeanPool{} }

// Forward averages the T positions of every sample.
func (p *MeanPool) Forward(x *mat.Tensor) *mat.Tensor {
	y, _ := p.Train(x)
	return y
}

// Train averages the T positions of every sample; its Backprop spreads the
// gradient uniformly back over them.
func (p *MeanPool) Train(x *mat.Tensor) (*mat.Tensor, Backprop) {
	T := x.T
	out := mat.NewTensor(x.N, 1, x.D)
	inv := 1 / float64(T)
	for n := 0; n < x.N; n++ {
		s := x.Sample(n)
		orow := out.Sample(n).Row(0)
		for t := 0; t < T; t++ {
			row := s.Row(t)
			for d, v := range row {
				orow[d] += v * inv
			}
		}
	}
	return out, func(grad *mat.Tensor) *mat.Tensor {
		dx := mat.NewTensor(grad.N, T, grad.D)
		for n := 0; n < grad.N; n++ {
			grow := grad.Sample(n).Row(0)
			s := dx.Sample(n)
			for t := 0; t < T; t++ {
				row := s.Row(t)
				for d, v := range grow {
					row[d] = v * inv
				}
			}
		}
		return dx
	}
}

// Params returns nil; MeanPool is parameter-free.
func (p *MeanPool) Params() []*Param { return nil }

// Name reports the layer name.
func (p *MeanPool) Name() string { return "meanpool" }
