package nn

import (
	"fmt"
	"math/rand"

	"dart/internal/mat"
)

// PositionalEmbedding adds a learned per-position embedding to the sequence:
// y[n, t, :] = x[n, t, :] + E[t, :]. Without it, self-attention followed by
// mean pooling is permutation-invariant over the access history, discarding
// the order information that delta prediction depends on.
type PositionalEmbedding struct {
	T, D int
	Emb  *Param // [T, D]
}

// NewPositionalEmbedding creates a learned positional embedding with small
// Gaussian initialisation.
func NewPositionalEmbedding(name string, t, d int, rng *rand.Rand) *PositionalEmbedding {
	p := &PositionalEmbedding{T: t, D: d, Emb: newParam(name+".emb", t, d)}
	p.Emb.W.Randn(rng, 0.02)
	return p
}

// Forward adds the embedding to every sample.
func (p *PositionalEmbedding) Forward(x *mat.Tensor) *mat.Tensor {
	y, _ := p.Train(x)
	return y
}

// Train adds the embedding to every sample; its Backprop passes the gradient
// through and accumulates the embedding gradient.
func (p *PositionalEmbedding) Train(x *mat.Tensor) (*mat.Tensor, Backprop) {
	if x.T != p.T || x.D != p.D {
		panic(fmt.Sprintf("nn: posembed expects [*,%d,%d], got [*,%d,%d]", p.T, p.D, x.T, x.D))
	}
	out := x.Clone()
	for n := 0; n < x.N; n++ {
		s := out.Sample(n)
		for t := 0; t < p.T; t++ {
			row := s.Row(t)
			erow := p.Emb.W.Row(t)
			for d, v := range erow {
				row[d] += v
			}
		}
	}
	return out, func(grad *mat.Tensor) *mat.Tensor {
		for n := 0; n < grad.N; n++ {
			s := grad.Sample(n)
			for t := 0; t < p.T; t++ {
				row := s.Row(t)
				grow := p.Emb.G.Row(t)
				for d, v := range row {
					grow[d] += v
				}
			}
		}
		return grad.Clone()
	}
}

// Params returns the embedding table.
func (p *PositionalEmbedding) Params() []*Param { return []*Param{p.Emb} }

// Name reports the layer name.
func (p *PositionalEmbedding) Name() string { return p.Emb.Name[:len(p.Emb.Name)-len(".emb")] }
