package tabular

import (
	"fmt"
	"math/rand"

	"dart/internal/mat"
	"dart/internal/nn"
)

// Config controls layer-wise tabularization (Algorithm 1).
type Config struct {
	Kernel         KernelConfig // table configuration ⟨K, C⟩ shared by all kernels
	Softmax        SoftmaxMode  // attention softmax folding mode
	FineTune       bool         // enable per-layer fine-tuning (Algorithm 1 line 8)
	FineTuneEpochs int          // E in Algorithm 1
	Seed           int64
}

// fineTuneLR is the Adam learning rate of per-layer fine-tuning.
const fineTuneLR = 1e-3

// withDefaults fills unset training hyperparameters.
func (c Config) withDefaults() Config {
	if c.FineTuneEpochs == 0 {
		c.FineTuneEpochs = 8
	}
	c.Kernel = c.Kernel.withDefaults()
	return c
}

// Result is the output of Tabularize: the table hierarchy plus per-layer
// diagnostics. Cosine[i] is the cosine similarity between the tabularized and
// exact activations after hierarchy layer i (the Fig. 11 measurement).
type Result struct {
	Hierarchy  *Hierarchy
	LayerNames []string
	Cosine     []float64
}

// Tabularize converts a trained model into a hierarchy of tables, layer by
// layer (Algorithm 1). data supplies the kernel-fitting inputs; the exact
// activations of the original model serve as fine-tuning targets so each
// table imitates the layer output rather than merely approximating its
// weights (Eq. 26).
func Tabularize(model *nn.Sequential, data *mat.Tensor, cfg Config) *Result {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &Result{Hierarchy: &Hierarchy{}}
	w := &walker{cfg: cfg, rng: rng, res: res}
	approx := data.Clone()
	exact := data.Clone()
	w.walk(model.Layers, approx, exact)
	return res
}

// walker threads the approximate (through-tables) and exact (through-network)
// activations through the layer list.
type walker struct {
	cfg     Config
	rng     *rand.Rand
	res     *Result
	kernels int // count of lookup kernels built so far; first one skips fine-tuning
}

// record appends a layer and its diagnostic cosine similarity.
func (w *walker) record(l Layer, approx, exact *mat.Tensor) {
	w.res.Hierarchy.Layers = append(w.res.Hierarchy.Layers, l)
	w.res.LayerNames = append(w.res.LayerNames, l.Name())
	w.res.Cosine = append(w.res.Cosine, mat.CosineSimilarity(approx.AsMatrix(), exact.AsMatrix()))
}

// apply runs one tabular layer over a batch, fanning the independent
// per-sample queries across the worker pool.
func apply(l Layer, x *mat.Tensor) *mat.Tensor {
	return queryBatch(x, 4, l.Query)
}

// walk processes a layer list, returning the updated activations.
func (w *walker) walk(layers []nn.Layer, approx, exact *mat.Tensor) (*mat.Tensor, *mat.Tensor) {
	for _, l := range layers {
		approx, exact = w.layer(l, approx, exact)
	}
	return approx, exact
}

func (w *walker) layer(l nn.Layer, approx, exact *mat.Tensor) (*mat.Tensor, *mat.Tensor) {
	// The native-form layers differ only in their constructor; the lookup
	// kernels and containers walk their own way.
	var t Layer
	switch v := l.(type) {
	case *nn.Linear:
		exactOut := v.Forward(exact)
		k := w.linearKernel(v, approx, exactOut)
		approxOut := apply(k, approx)
		w.record(k, approxOut, exactOut)
		return approxOut, exactOut
	case *nn.MultiHeadSelfAttention:
		return w.msa(v, approx, exact)
	case *nn.Residual:
		return w.residual(v, approx, exact)
	case *nn.Sequential:
		return w.walk(v.Layers, approx, exact)
	case *nn.LayerNorm:
		t = NewLayerNormTab(v)
	case *nn.ReLU:
		t = ReLUTab{}
	case *nn.Sigmoid:
		t = NewSigmoidLUT()
	case *nn.MeanPool:
		t = MeanPoolTab{}
	case *nn.PositionalEmbedding:
		t = NewPosEmbedTab(v, w.cfg.Kernel.DataBits)
	default:
		panic(fmt.Sprintf("tabular: no kernel for layer type %T", l))
	}
	approxOut := apply(t, approx)
	exactOut := l.Forward(exact)
	w.record(t, approxOut, exactOut)
	return approxOut, exactOut
}

// residual tabularizes the inner block and re-adds the skip connection on
// both the approximate and exact paths.
func (w *walker) residual(r *nn.Residual, approx, exact *mat.Tensor) (*mat.Tensor, *mat.Tensor) {
	tab := &ResidualTab{}
	// Mark where the inner layers start so we can scoop them into the block.
	start := len(w.res.Hierarchy.Layers)
	var innerLayers []nn.Layer
	switch inner := r.Inner.(type) {
	case *nn.Sequential:
		innerLayers = inner.Layers
	default:
		innerLayers = []nn.Layer{r.Inner}
	}
	approxInner, exactInner := w.walk(innerLayers, approx, exact)
	// Move the freshly appended layers inside the residual wrapper.
	tab.Inner = append(tab.Inner, w.res.Hierarchy.Layers[start:]...)
	w.res.Hierarchy.Layers = w.res.Hierarchy.Layers[:start]
	w.res.LayerNames = w.res.LayerNames[:start]
	w.res.Cosine = w.res.Cosine[:start]

	approxOut := approxInner.Clone()
	for i, v := range approx.Data {
		approxOut.Data[i] += v
	}
	exactOut := exactInner.Clone()
	for i, v := range exact.Data {
		exactOut.Data[i] += v
	}
	w.record(tab, approxOut, exactOut)
	return approxOut, exactOut
}

// linearKernel optionally fine-tunes the layer to map approxIn onto the exact
// outputs and builds its table from approxIn.
func (w *walker) linearKernel(l *nn.Linear, approxIn, exactOut *mat.Tensor) *LinearKernel {
	layer := l
	if w.cfg.FineTune && w.kernels > 0 {
		layer = fineTuneLinear(l, approxIn, exactOut, w.cfg.FineTuneEpochs, w.rng)
	}
	w.kernels++
	return NewLinearKernel(layer, approxIn, w.cfg.Kernel, w.rng)
}

// msa decomposes a multi-head self-attention block: linear kernels for the
// Q/K/V projections, an attention kernel per head, and a linear kernel for
// the output projection.
func (w *walker) msa(m *nn.MultiHeadSelfAttention, approx, exact *mat.Tensor) (*mat.Tensor, *mat.Tensor) {
	exactQ := m.WQ.Forward(exact)
	exactK := m.WK.Forward(exact)
	exactV := m.WV.Forward(exact)

	kq := w.linearKernel(m.WQ, approx, exactQ)
	kk := w.linearKernel(m.WK, approx, exactK)
	kv := w.linearKernel(m.WV, approx, exactV)
	approxQ := apply(kq, approx)
	approxK := apply(kk, approx)
	approxV := apply(kv, approx)

	msak := &MSAKernel{D: m.D, H: m.Heads, Dh: m.Dh, WQ: kq, WK: kk, WV: kv}
	n, t := approx.N, approx.T
	approxConcat := mat.NewTensor(n, t, m.D)
	for h := 0; h < m.Heads; h++ {
		lo, hi := h*m.Dh, (h+1)*m.Dh
		ts := AttentionTrainingSet{
			Q: sliceDims(approxQ, lo, hi),
			K: sliceDims(approxK, lo, hi),
			V: sliceDims(approxV, lo, hi),
		}
		ak := NewAttentionKernel(ts, w.cfg.Kernel, w.cfg.Softmax, w.rng)
		msak.Heads = append(msak.Heads, ak)
		for s := 0; s < n; s++ {
			oh := ak.Query(ts.Q.Sample(s), ts.K.Sample(s), ts.V.Sample(s))
			dst := approxConcat.Sample(s)
			for i := 0; i < t; i++ {
				copy(dst.Row(i)[lo:hi], oh.Row(i))
			}
		}
	}

	// Exact MSA output as the fine-tuning target for the output projection.
	exactOut := m.Forward(exact)
	ko := w.linearKernel(m.WO, approxConcat, exactOut)
	msak.WO = ko
	approxOut := apply(ko, approxConcat)

	w.record(msak, approxOut, exactOut)
	return approxOut, exactOut
}

// sliceDims extracts feature columns [lo, hi) from every position of x.
func sliceDims(x *mat.Tensor, lo, hi int) *mat.Tensor {
	out := mat.NewTensor(x.N, x.T, hi-lo)
	for n := 0; n < x.N; n++ {
		src := x.Sample(n)
		dst := out.Sample(n)
		for t := 0; t < x.T; t++ {
			copy(dst.Row(t), src.Row(t)[lo:hi])
		}
	}
	return out
}

// fineTuneLinear trains a copy of l to map the tabularized inputs to the
// original layer outputs (Eq. 26), distilling the layer into its table.
func fineTuneLinear(l *nn.Linear, in, target *mat.Tensor, epochs int, rng *rand.Rand) *nn.Linear {
	ft := nn.NewLinear(l.Name()+".ft", l.In, l.Out, rng)
	ft.Weight.W.CopyFrom(l.Weight.W)
	copy(ft.Bias.W.Data, l.Bias.W.Data)
	opt := nn.NewAdam(fineTuneLR)
	for e := 0; e < epochs; e++ {
		pred, back := ft.Train(in)
		_, grad := nn.MSE(pred, target)
		back(grad)
		opt.Step(ft.Params())
	}
	return ft
}
