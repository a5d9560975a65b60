// Package nn is a small from-scratch neural-network library supporting the
// attention-based memory-access predictors of the DART paper: linear layers,
// multi-head self-attention, layer normalization, residual blocks, an LSTM
// (for the Voyager-class baseline), binary-cross-entropy and distillation
// losses, and the Adam optimizer. Batches are rank-3 tensors of shape
// [N samples, T sequence positions, D features].
//
// Layers hold only configuration and parameters. Forward stores nothing, so
// a trained network can serve inference from any number of goroutines;
// training calls Train instead, which returns the output together with a
// Backprop closure that owns that pass's activations and runs full
// backpropagation when handed the output gradient.
package nn

import (
	"fmt"

	"dart/internal/mat"
)

// Param is a trainable parameter with its accumulated gradient.
type Param struct {
	Name string
	W    *mat.Matrix // value
	G    *mat.Matrix // gradient, same shape as W
}

func newParam(name string, rows, cols int) *Param {
	return &Param{Name: name, W: mat.New(rows, cols), G: mat.New(rows, cols)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.G.Zero() }

// Backprop is the backward half of one Train call: it takes the gradient
// with respect to that call's output, accumulates the parameter gradients,
// and returns the gradient with respect to its input. The activations it
// needs live in its closure, not in the layer.
type Backprop func(grad *mat.Tensor) *mat.Tensor

// Layer is a differentiable module. A layer holds only its configuration and
// parameters: Forward reads them and writes nothing, so one layer may serve
// Forward calls from many goroutines at once. Train runs the same forward
// pass and also returns its Backprop; the input must not be modified until
// that Backprop has run.
type Layer interface {
	Forward(x *mat.Tensor) *mat.Tensor
	Train(x *mat.Tensor) (*mat.Tensor, Backprop)
	Params() []*Param
	Name() string
}

// Sequential chains layers.
type Sequential struct {
	Layers []Layer
	label  string
}

// NewSequential builds a sequential container with a diagnostic label.
func NewSequential(label string, layers ...Layer) *Sequential {
	return &Sequential{Layers: layers, label: label}
}

// Forward runs every layer's Forward in order, so each layer's activations
// are garbage as soon as the next layer has them.
func (s *Sequential) Forward(x *mat.Tensor) *mat.Tensor { return s.ForwardUpTo(x, len(s.Layers)) }

// Train runs every layer in order; its Backprop propagates the gradient
// through the layers in reverse.
func (s *Sequential) Train(x *mat.Tensor) (*mat.Tensor, Backprop) {
	backs := make([]Backprop, len(s.Layers))
	for i, l := range s.Layers {
		x, backs[i] = l.Train(x)
	}
	return x, func(grad *mat.Tensor) *mat.Tensor {
		for i := len(backs) - 1; i >= 0; i-- {
			grad = backs[i](grad)
		}
		return grad
	}
}

// Params returns the parameters of all layers.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Name returns the container label.
func (s *Sequential) Name() string { return s.label }

// ForwardUpTo runs layers [0, k) and returns the intermediate activation.
// The tabularizer uses this to obtain per-layer targets (Algorithm 1, line 2).
func (s *Sequential) ForwardUpTo(x *mat.Tensor, k int) *mat.Tensor {
	if k < 0 || k > len(s.Layers) {
		panic(fmt.Sprintf("nn: ForwardUpTo(%d) of %d layers", k, len(s.Layers)))
	}
	for _, l := range s.Layers[:k] {
		x = l.Forward(x)
	}
	return x
}

// Residual wraps an inner layer and adds the block input to its output:
// y = x + inner(x). The inner layer must preserve the input shape.
type Residual struct {
	Inner Layer
}

// NewResidual wraps inner in a residual connection.
func NewResidual(inner Layer) *Residual { return &Residual{Inner: inner} }

// Forward computes x + inner(x).
func (r *Residual) Forward(x *mat.Tensor) *mat.Tensor { return addInto(r.Inner.Forward(x), x) }

// Train computes x + inner(x); its Backprop routes the gradient through the
// inner layer and the skip path.
func (r *Residual) Train(x *mat.Tensor) (*mat.Tensor, Backprop) {
	y, back := r.Inner.Train(x)
	return addInto(y, x), func(grad *mat.Tensor) *mat.Tensor {
		return addInto(back(grad), grad)
	}
}

// addInto returns a copy of y with x added elementwise; the shapes must match.
func addInto(y, x *mat.Tensor) *mat.Tensor {
	if !y.ShapeEquals(x) {
		panic("nn: residual inner layer changed shape")
	}
	out := y.Clone()
	for i, v := range x.Data {
		out.Data[i] += v
	}
	return out
}

// Params returns the inner layer's parameters.
func (r *Residual) Params() []*Param { return r.Inner.Params() }

// Name identifies the block.
func (r *Residual) Name() string { return "residual(" + r.Inner.Name() + ")" }
