package tabular

import (
	"fmt"
	"math/rand"

	"dart/internal/mat"
	"dart/internal/nn"
	"dart/internal/pq"
)

// LinearKernel tabularizes Linear(X) = WX + B (Sec. V-A). Prototypes are
// learned from row vectors across samples and sequence positions; the table
// stores, for every output dimension o and prototype (c, k), the dot product
// W_o^c · P_k^c (Eq. 10) with the bias folded into subspace 0 so that query
// aggregation adds it for free. A query encodes each of the T input rows once
// and aggregates over subspaces per Eq. 11.
type LinearKernel struct {
	In, Out int
	enc     pq.Encoder
	// tab row c*K + k holds W_o^c · P_k^c (+ bias_o when c == 0) for every
	// output o. Prototype-major layout: one encoded index selects a
	// contiguous Out-wide row, so query aggregation is sequential adds (a
	// straight copy for C == 1) instead of a K-strided gather per output dim.
	tab  *rowTable
	cfg  KernelConfig
	seqT int // nominal sequence length for cost reporting
}

// NewLinearKernel builds the kernel from a trained linear layer and the
// kernel's PQ training inputs (the tabularized activations reaching this
// layer), per Algorithm 1 line 10.
func NewLinearKernel(l *nn.Linear, train *mat.Tensor, cfg KernelConfig, rng *rand.Rand) *LinearKernel {
	cfg = cfg.withDefaults()
	if train.D != l.In {
		panic(fmt.Sprintf("tabular: linear kernel train dim %d != layer in %d", train.D, l.In))
	}
	enc := newEncoder(cfg, l.In, rng)
	enc.Fit(train.AsMatrix())
	k := &LinearKernel{
		In: l.In, Out: l.Out,
		enc:  enc,
		cfg:  cfg,
		seqT: train.T,
	}
	C, K, V := enc.C(), enc.K(), enc.SubDim()
	table := make([]float64, l.Out*C*K)
	w := l.Weight.W // [Out, In]
	for o := 0; o < l.Out; o++ {
		wrow := w.Row(o)
		for c := 0; c < C; c++ {
			wc := wrow[c*V : (c+1)*V]
			for ki := 0; ki < K; ki++ {
				p := enc.Center(c, ki)
				var dot float64
				for j, wv := range wc {
					dot += wv * p[j]
				}
				if c == 0 {
					dot += l.Bias.W.Data[o] // bias folded per Eq. 10
				}
				table[(c*K+ki)*l.Out+o] = dot
			}
		}
	}
	// A quantized table is stored at build time, before downstream kernels
	// fit their prototypes: later layers train on the activations this table
	// actually produces (quantization-aware tabularization), and the
	// fine-tuning pass has already run on the source nn.Linear.
	k.tab = newRowTable(table, C*K, l.Out, cfg.DataBits)
	return k
}

// Query maps a T x In activation to T x Out via encode + lookup + aggregate.
// Rows are encoded one at a time into a stack buffer, subspace 0 writes its
// table row straight into the output row, and the remaining subspaces add
// theirs on top — a quantized row's scale is applied exactly once.
func (k *LinearKernel) Query(x *mat.Matrix) *mat.Matrix {
	if x.Cols != k.In {
		panic(fmt.Sprintf("tabular: linear kernel query dim %d != %d", x.Cols, k.In))
	}
	C, K := k.enc.C(), k.enc.K()
	out := mat.New(x.Rows, k.Out)
	var ibuf [maxStackSubspaces]int
	idx := ibuf[:C]
	if C > maxStackSubspaces {
		idx = make([]int, C)
	}
	for t := 0; t < x.Rows; t++ {
		k.enc.EncodeRow(x.Row(t), idx)
		orow := out.Row(t)
		k.tab.copyRow(idx[0], orow)
		for c := 1; c < C; c++ {
			k.tab.addRow(c*K+idx[c], orow)
		}
	}
	return out
}

// maxStackSubspaces bounds the encoded-index buffer the query path keeps on
// the stack; serving configs use C of 1-4.
const maxStackSubspaces = 16

// Cost reports Eqs. 16, 18, 20 for this kernel. The storage term prices the
// width entries are actually stored at — 64-bit float64 or the 8/16-bit
// quantized payload plus its per-row affine metadata — rather than echoing
// KernelConfig.DataBits, which older configs set to widths the tables never
// used.
func (k *LinearKernel) Cost() Cost {
	K, C := k.cfg.K, k.enc.C()
	return Cost{
		LatencyCycles: LinearLatency(K, C),
		StorageBits:   LinearStorageBits(k.seqT, k.Out, K, C, k.tab.bits) + k.tab.overheadBits(),
		Ops:           LinearOps(k.seqT, k.Out, K, C),
	}
}

// TableBytes is the measured footprint of the stored table (payload plus any
// quantization metadata).
func (k *LinearKernel) TableBytes() int { return k.tab.storedBytes() }

// Name identifies the layer.
func (k *LinearKernel) Name() string { return fmt.Sprintf("linear-kernel(%d->%d)", k.In, k.Out) }
