package tabular

import (
	"fmt"
	"math"

	"dart/internal/mat"
	"dart/internal/nn"
)

// LayerNormTab keeps layer normalization in native arithmetic form
// (Algorithm 1 line 18): it is a dimension-wise reduction with no matrix
// multiplication, so the paper leaves it untabularized.
type LayerNormTab struct {
	D     int
	Gamma []float64
	Beta  []float64
	Eps   float64
}

// NewLayerNormTab copies the parameters of a trained layer norm.
func NewLayerNormTab(ln *nn.LayerNorm) *LayerNormTab {
	return &LayerNormTab{
		D:     ln.D,
		Gamma: append([]float64(nil), ln.Gamma.W.Data...),
		Beta:  append([]float64(nil), ln.Beta.W.Data...),
		Eps:   ln.Eps,
	}
}

// Query normalises each row of x.
func (l *LayerNormTab) Query(x *mat.Matrix) *mat.Matrix {
	out := mat.New(x.Rows, x.Cols)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		var mean float64
		for _, v := range row {
			mean += v
		}
		mean /= float64(l.D)
		var vr float64
		for _, v := range row {
			d := v - mean
			vr += d * d
		}
		vr /= float64(l.D)
		inv := 1 / math.Sqrt(vr+l.Eps)
		orow := out.Row(i)
		for j, v := range row {
			orow[j] = l.Gamma[j]*(v-mean)*inv + l.Beta[j]
		}
	}
	return out
}

// Cost reports the layer-norm constants of Eq. 22/23. The parameters are
// kept as float64, so storage is priced at 64 bits per entry — the
// passthroughs used to echo a configured width their slices never had.
func (l *LayerNormTab) Cost() Cost {
	return Cost{LatencyCycles: LayerNormLatency, StorageBits: LayerNormStorageBits(l.D, 64)}
}

// Name identifies the layer.
func (l *LayerNormTab) Name() string { return fmt.Sprintf("layernorm(%d)", l.D) }

// SigmoidLUT approximates the output sigmoid with a fixed lookup table
// (Algorithm 1 line 16), uniformly sampling [-Range, Range].
type SigmoidLUT struct {
	Range   float64
	Entries []float64
}

// NewSigmoidLUT builds the standard 1024-entry table over [-8, 8].
func NewSigmoidLUT() *SigmoidLUT {
	l := &SigmoidLUT{Range: 8, Entries: make([]float64, SigmoidLUTEntries)}
	for i := range l.Entries {
		x := -l.Range + 2*l.Range*float64(i)/float64(len(l.Entries)-1)
		l.Entries[i] = 1 / (1 + math.Exp(-x))
	}
	return l
}

// Lookup returns the table approximation of σ(x), clamping out-of-range inputs.
func (l *SigmoidLUT) Lookup(x float64) float64 {
	if x <= -l.Range {
		return l.Entries[0]
	}
	if x >= l.Range {
		return l.Entries[len(l.Entries)-1]
	}
	i := int((x + l.Range) / (2 * l.Range) * float64(len(l.Entries)-1))
	return l.Entries[i]
}

// Query applies the LUT elementwise.
func (l *SigmoidLUT) Query(x *mat.Matrix) *mat.Matrix {
	out := mat.New(x.Rows, x.Cols)
	for i, v := range x.Data {
		out.Data[i] = l.Lookup(v)
	}
	return out
}

// Cost reports the sigmoid constants of Eq. 22/23; the LUT entries are
// float64, so they are priced at their stored 64-bit width.
func (l *SigmoidLUT) Cost() Cost {
	return Cost{LatencyCycles: SigmoidLatency, StorageBits: SigmoidStorageBits(64)}
}

// Name identifies the layer.
func (l *SigmoidLUT) Name() string { return "sigmoid-lut" }

// ReLUTab keeps the FFN's rectifier in native form: an elementwise max with
// zero, no multiplications.
type ReLUTab struct{}

// Query zeroes negative entries.
func (ReLUTab) Query(x *mat.Matrix) *mat.Matrix {
	out := x.Clone()
	for i, v := range out.Data {
		if v < 0 {
			out.Data[i] = 0
		}
	}
	return out
}

// Cost is one comparison cycle.
func (ReLUTab) Cost() Cost { return Cost{LatencyCycles: 1} }

// Name identifies the layer.
func (ReLUTab) Name() string { return "relu" }

// MeanPoolTab averages over the sequence dimension (T x D -> 1 x D), the
// classification-head reduction before the output linear kernel.
type MeanPoolTab struct{}

// Query averages the rows of x.
func (MeanPoolTab) Query(x *mat.Matrix) *mat.Matrix {
	out := mat.New(1, x.Cols)
	inv := 1 / float64(x.Rows)
	orow := out.Row(0)
	for i := 0; i < x.Rows; i++ {
		for j, v := range x.Row(i) {
			orow[j] += v * inv
		}
	}
	return out
}

// Cost is a log-depth parallel reduction.
func (MeanPoolTab) Cost() Cost { return Cost{LatencyCycles: 2} }

// Name identifies the layer.
func (MeanPoolTab) Name() string { return "meanpool" }

// PosEmbedTab adds the trained positional embedding, a constant per-position
// vector addition with no multiplications. The embedding is a stored table
// of the deployment artifact, so it is stored at the kernel tables' width:
// one row per position, and at 8 or 16 bits each row carries its own affine
// pair and the add goes through the same accumulate kernels as the lookups.
type PosEmbedTab struct {
	T, D int
	Emb  *rowTable // T rows of D entries
}

// NewPosEmbedTab copies a trained positional embedding, quantizing it when
// bits is 8 or 16 (any other value keeps float64).
func NewPosEmbedTab(p *nn.PositionalEmbedding, bits int) *PosEmbedTab {
	emb := append([]float64(nil), p.Emb.W.Data...)
	return &PosEmbedTab{T: p.T, D: p.D, Emb: newRowTable(emb, p.T, p.D, bits)}
}

// Query adds the embedding row-wise.
func (p *PosEmbedTab) Query(x *mat.Matrix) *mat.Matrix {
	out := x.Clone()
	for t := 0; t < x.Rows && t < p.T; t++ {
		p.Emb.addRow(t, out.Row(t))
	}
	return out
}

// Cost is one parallel add plus the embedding table at the width it is
// actually stored.
func (p *PosEmbedTab) Cost() Cost { return posEmbedCost(p.T, p.D, p.Emb.bits) }

// Name identifies the layer.
func (p *PosEmbedTab) Name() string { return fmt.Sprintf("posembed(%dx%d)", p.T, p.D) }

// ResidualTab adds the block input to the output of its inner layers.
type ResidualTab struct {
	Inner []Layer
}

// Query computes x + inner(x).
func (r *ResidualTab) Query(x *mat.Matrix) *mat.Matrix {
	y := x
	for _, l := range r.Inner {
		y = l.Query(y)
	}
	out := y.Clone()
	out.AddInPlace(x)
	return out
}

// Cost sums the inner costs plus one add cycle.
func (r *ResidualTab) Cost() Cost {
	c := Cost{LatencyCycles: 1}
	for _, l := range r.Inner {
		c = c.Add(l.Cost())
	}
	return c
}

// Name identifies the block.
func (r *ResidualTab) Name() string { return "residual" }
