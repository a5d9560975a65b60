package prefetch

import (
	"sort"

	"dart/internal/dataprep"
	"dart/internal/mat"
	"dart/internal/nn"
	"dart/internal/sim"
	"dart/internal/tabular"
)

// BitmapPredictor maps a T x DIn input matrix (segmented address history plus
// PC feature, Sec. VI-A) to delta-bitmap logits of length DOut. Both neural
// models and DART's table hierarchy satisfy this.
type BitmapPredictor interface {
	Logits(x *mat.Matrix) []float64
}

// NNModel adapts an nn model (transformer or LSTM predictor).
type NNModel struct{ Model nn.Layer }

// Logits runs the model on a single sample.
func (m NNModel) Logits(x *mat.Matrix) []float64 {
	t := mat.TensorFromSlice(1, x.Rows, x.Cols, append([]float64(nil), x.Data...))
	out := m.Model.Forward(t)
	return append([]float64(nil), out.Data...)
}

// TableModel adapts a DART table hierarchy.
type TableModel struct{ H *tabular.Hierarchy }

// Logits queries the hierarchy on a single sample.
func (m TableModel) Logits(x *mat.Matrix) []float64 {
	out := m.H.Query(x)
	return append([]float64(nil), out.Data...)
}

// NNPrefetcher wraps a BitmapPredictor as an LLC prefetcher: it keeps the
// access history ring, builds the segmented input on every trigger, predicts
// the delta bitmap, and converts the strongest positive bits into prefetch
// addresses. Latency models predictor inference time; ideal variants use 0.
type NNPrefetcher struct {
	name      string
	pred      BitmapPredictor
	cfg       dataprep.Config
	latency   int
	storage   int
	degree    int
	threshold float64 // logit threshold; 0 corresponds to p > 0.5

	hist []histEntry // ring of the last History accesses, access i in slot i % History
	n    int         // accesses recorded
	x    *mat.Matrix // reusable input buffer
}

type histEntry struct {
	block uint64
	pc    uint64
}

// NewNNPrefetcher builds the wrapper. degree caps prefetches per trigger.
func NewNNPrefetcher(name string, pred BitmapPredictor, cfg dataprep.Config, latency, storageBytes, degree int) *NNPrefetcher {
	return &NNPrefetcher{
		name:    name,
		pred:    pred,
		cfg:     cfg,
		latency: latency,
		storage: storageBytes,
		degree:  degree,
		hist:    make([]histEntry, cfg.History),
		x:       mat.New(cfg.History, cfg.InputDim()),
	}
}

// Name identifies the prefetcher.
func (p *NNPrefetcher) Name() string { return p.name }

// Latency is the modelled inference latency in cycles.
func (p *NNPrefetcher) Latency() int { return p.latency }

// StorageBytes is the predictor's storage cost.
func (p *NNPrefetcher) StorageBytes() int { return p.storage }

// OnAccess appends to the history and, once it is full, predicts deltas.
// It is BuildInput followed by a predictor query followed by Apply. The
// serving engine coalesces cross-session model queries behind the
// BitmapPredictor seam (its predictor blocks in Logits until the admission
// batcher answers); the exported halves exist for callers that need to
// defer the query themselves instead of blocking inside OnAccess.
func (p *NNPrefetcher) OnAccess(a sim.Access) []uint64 {
	x, ok := p.BuildInput(a)
	if !ok {
		return nil
	}
	return p.Apply(a, p.pred.Logits(x))
}

// BuildInput records the access in the history ring and, once the ring holds
// a full window, writes the segmented model input into the prefetcher's
// reusable buffer and returns it. The buffer is valid until the next
// BuildInput call, so callers that defer the predictor query must finish
// with it before feeding this prefetcher another access.
func (p *NNPrefetcher) BuildInput(a sim.Access) (*mat.Matrix, bool) {
	p.hist[p.n%len(p.hist)] = histEntry{block: a.Block, pc: a.PC}
	p.n++
	if p.n < len(p.hist) {
		return nil, false
	}
	for t := range p.hist {
		h := p.hist[(p.n+t)%len(p.hist)]
		p.cfg.InputRow(h.block, h.pc, p.x.Row(t))
	}
	return p.x, true
}

// Apply converts predicted delta-bitmap logits for trigger access a into
// prefetch block addresses: positive bits, strongest first, up to the degree.
func (p *NNPrefetcher) Apply(a sim.Access, logits []float64) []uint64 {
	type cand struct {
		bit   int
		logit float64
	}
	cands := make([]cand, 0, 8)
	for bit, z := range logits {
		if z > p.threshold {
			cands = append(cands, cand{bit, z})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].logit > cands[j].logit })
	if len(cands) > p.degree {
		cands = cands[:p.degree]
	}
	out := make([]uint64, 0, len(cands))
	for _, c := range cands {
		nb := int64(a.Block) + p.cfg.BitToDelta(c.bit)
		if nb > 0 {
			out = append(out, uint64(nb))
		}
	}
	return out
}
