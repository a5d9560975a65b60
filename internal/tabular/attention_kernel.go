package tabular

import (
	"fmt"
	"math"
	"math/rand"

	"dart/internal/mat"
	"dart/internal/pq"
)

// SoftmaxMode selects how the attention kernel folds the softmax activation
// into the QKV table (Sec. V-B).
type SoftmaxMode int

const (
	// SoftmaxShared stores exp-weighted numerator and denominator tables and
	// performs one division per output row at query time, so the softmax is
	// normalised over the full (quantized) score row. This is the default.
	SoftmaxShared SoftmaxMode = iota
	// SoftmaxPerSubspace normalises each subspace's prototype independently,
	// the literal reading of Eq. 14; kept for the ablation bench.
	SoftmaxPerSubspace
)

// AttentionKernel tabularizes one head of scaled dot-product attention:
// Y = softmax(QKᵀ/√Dk)·V for T x Dk inputs. Training performs the paper's two
// quantization steps: (1) prototypes of Q and K rows with a pairwise-product
// QK table of depth K² (Eq. 12), and (2) a secondary quantization of the
// approximated score rows, whose prototypes absorb the 1/√Dk scaling and the
// softmax before being dotted against prototypes of V's columns to form the
// QKV table (Eq. 14). Queries are two rounds of encode + lookup (Eq. 13, 15)
// with no matrix multiplication, scaling, or activation arithmetic.
type AttentionKernel struct {
	T, Dk int
	mode  SoftmaxMode
	cfg   KernelConfig

	encQ, encK pq.Encoder // over Dk rows
	qk         *rowTable  // [Ck·K][K]: P^Q_ci · P^K_cj

	encS, encV pq.Encoder // over length-T score rows / V columns
	qkv        *rowTable  // [Ct·K][K]: numerator (shared) or folded softmax (per-subspace)
	// denTable [Ct][K] holds the shared-mode denominator partial sums. It
	// stays float64 at every DataBits: it is K·C entries of reciprocal mass
	// whose relative error would multiply every output.
	denTable []float64
	expShift float64 // global shift keeping exp() in range
}

// AttentionTrainingSet carries the kernel-fitting activations: the Q, K, V
// tensors reaching this head, each [N, T, Dk].
type AttentionTrainingSet struct {
	Q, K, V *mat.Tensor
}

// NewAttentionKernel fits the two quantization stages and builds both tables.
func NewAttentionKernel(ts AttentionTrainingSet, cfg KernelConfig, mode SoftmaxMode, rng *rand.Rand) *AttentionKernel {
	cfg = cfg.withDefaults()
	t, dk := ts.Q.T, ts.Q.D
	if !ts.Q.ShapeEquals(ts.K) || !ts.Q.ShapeEquals(ts.V) {
		panic("tabular: attention kernel Q/K/V shape mismatch")
	}
	a := &AttentionKernel{T: t, Dk: dk, mode: mode, cfg: cfg}
	a.encQ = newEncoder(cfg, dk, rng)
	a.encQ.Fit(ts.Q.AsMatrix())
	a.encK = newEncoder(cfg, dk, rng)
	a.encK.Fit(ts.K.AsMatrix())

	// QK table: pairwise prototype dot products per subspace (Eq. 12).
	ck, kk := a.encQ.C(), a.encQ.K()
	qk := make([]float64, ck*kk*kk)
	for c := 0; c < ck; c++ {
		for i := 0; i < kk; i++ {
			pi := a.encQ.Center(c, i)
			for j := 0; j < kk; j++ {
				pj := a.encK.Center(c, j)
				var dot float64
				for v, qv := range pi {
					dot += qv * pj[v]
				}
				qk[(c*kk+i)*kk+j] = dot
			}
		}
	}
	// Store at the configured width before fitting the secondary stage: encS
	// must train on the score rows the stored table will actually produce.
	a.qk = newRowTable(qk, ck*kk, kk, cfg.DataBits)

	// Approximate score rows for the training set via the QK table (the
	// secondary quantization trains on what the query will actually see).
	n := ts.Q.N
	scoreRows := mat.New(n*t, t)
	iq := make([]int, ck)
	ikByRow := make([][]int, t)
	for r := range ikByRow {
		ikByRow[r] = make([]int, ck)
	}
	for s := 0; s < n; s++ {
		qs, ks := ts.Q.Sample(s), ts.K.Sample(s)
		for t2 := 0; t2 < t; t2++ {
			a.encK.EncodeRow(ks.Row(t2), ikByRow[t2])
		}
		for t1 := 0; t1 < t; t1++ {
			a.encQ.EncodeRow(qs.Row(t1), iq)
			row := scoreRows.Row(s*t + t1)
			for t2 := 0; t2 < t; t2++ {
				ik := ikByRow[t2]
				var sum float64
				for c := 0; c < ck; c++ {
					sum += a.qk.at(c*kk+iq[c], ik[c])
				}
				row[t2] = sum
			}
		}
	}
	a.encS = newEncoder(cfg, t, rng)
	a.encS.Fit(scoreRows)

	// V columns: reshape to (N·Dk) x T rows (the paper's Ṽᵀ).
	vcols := mat.New(n*dk, t)
	for s := 0; s < n; s++ {
		vs := ts.V.Sample(s)
		for d := 0; d < dk; d++ {
			row := vcols.Row(s*dk + d)
			for tt := 0; tt < t; tt++ {
				row[tt] = vs.At(tt, d)
			}
		}
	}
	a.encV = newEncoder(cfg, t, rng)
	a.encV.Fit(vcols)

	ct, ks := a.encS.C(), a.encS.K()
	a.qkv = newRowTable(a.buildQKVTable(), ct*ks, ks, cfg.DataBits)
	return a
}

// buildQKVTable folds scaling and softmax into the second-stage table,
// filling denTable and returning the float64 QKV entries.
func (a *AttentionKernel) buildQKVTable() []float64 {
	ct, k := a.encS.C(), a.encS.K()
	sub := a.encS.SubDim()
	scale := 1 / math.Sqrt(float64(a.Dk))
	// Global shift for exp() stability: max scaled prototype element.
	a.expShift = math.Inf(-1)
	for c := 0; c < ct; c++ {
		for i := 0; i < k; i++ {
			for _, v := range a.encS.Center(c, i) {
				if z := v * scale; z > a.expShift {
					a.expShift = z
				}
			}
		}
	}
	if math.IsInf(a.expShift, -1) {
		a.expShift = 0
	}
	qkv := make([]float64, ct*k*k)
	a.denTable = make([]float64, ct*k)
	ex := make([]float64, sub)
	for c := 0; c < ct; c++ {
		for i := 0; i < k; i++ {
			ps := a.encS.Center(c, i)
			var den float64
			for v, sv := range ps {
				e := math.Exp(sv*scale - a.expShift)
				ex[v] = e
				den += e
			}
			a.denTable[c*k+i] = den
			for j := 0; j < k; j++ {
				pv := a.encV.Center(c, j)
				var dot float64
				for v, e := range ex {
					dot += e * pv[v]
				}
				if a.mode == SoftmaxPerSubspace && den > 0 {
					dot /= den
				}
				qkv[(c*k+i)*k+j] = dot
			}
		}
	}
	return qkv
}

// Query runs the two lookup rounds for one sample: Q, K, V are T x Dk. Every
// per-sample index and score buffer lives in two flat scratch slices, so a
// query allocates a constant three slices regardless of T and Dk.
func (a *AttentionKernel) Query(q, k, v *mat.Matrix) *mat.Matrix {
	t := a.T
	if q.Rows != t || q.Cols != a.Dk {
		panic(fmt.Sprintf("tabular: attention query shape %dx%d, want %dx%d", q.Rows, q.Cols, t, a.Dk))
	}
	ck, kk := a.encQ.C(), a.encQ.K()
	ct, ks := a.encS.C(), a.encS.K()
	ints := make([]int, ck+t*ck+a.Dk*ct+ct)
	iq := ints[:ck]
	ik := ints[ck : ck+t*ck]
	ivs := ints[ck+t*ck : ck+t*ck+a.Dk*ct]
	is := ints[len(ints)-ct:]
	fl := make([]float64, t*t+t)
	scores := fl[:t*t]
	col := fl[t*t:]

	// Round 1: scores from the QK table (Eq. 13).
	for r := 0; r < t; r++ {
		a.encK.EncodeRow(k.Row(r), ik[r*ck:(r+1)*ck])
	}
	for t1 := 0; t1 < t; t1++ {
		a.encQ.EncodeRow(q.Row(t1), iq)
		row := scores[t1*t : (t1+1)*t]
		for t2 := 0; t2 < t; t2++ {
			ikr := ik[t2*ck : (t2+1)*ck]
			var sum float64
			for c := 0; c < ck; c++ {
				sum += a.qk.at(c*kk+iq[c], ikr[c])
			}
			row[t2] = sum
		}
	}
	// Round 2: QKV lookups with the float64 denominator (Eq. 15).
	for d := 0; d < a.Dk; d++ {
		for tt := 0; tt < t; tt++ {
			col[tt] = v.At(tt, d)
		}
		a.encV.EncodeRow(col, ivs[d*ct:(d+1)*ct])
	}
	out := mat.New(t, a.Dk)
	for t1 := 0; t1 < t; t1++ {
		a.encS.EncodeRow(scores[t1*t:(t1+1)*t], is)
		var den float64
		if a.mode == SoftmaxShared {
			for c, i := range is {
				den += a.denTable[c*ks+i]
			}
			if den == 0 {
				den = 1
			}
		}
		orow := out.Row(t1)
		for d := 0; d < a.Dk; d++ {
			ivd := ivs[d*ct : (d+1)*ct]
			var num float64
			for c, i := range is {
				num += a.qkv.at(c*ks+i, ivd[c])
			}
			if a.mode == SoftmaxShared {
				num /= den
			}
			orow[d] = num
		}
	}
	return out
}

// Cost reports Eqs. 17, 19, 21 for this kernel. As with the linear kernel,
// the storage term prices the actual stored entry width (64-bit float64 or
// the quantized width plus affine metadata); the always-float64 denominator
// table, which Eq. 19's 2K²·C·d term does not cover, is added explicitly.
func (a *AttentionKernel) Cost() Cost {
	k, c := a.cfg.K, a.encQ.C()
	return Cost{
		LatencyCycles: AttentionLatency(k, c),
		StorageBits: AttentionStorageBits(a.T, a.Dk, k, c, a.qk.bits) + len(a.denTable)*64 +
			a.qk.overheadBits() + a.qkv.overheadBits(),
		Ops: AttentionOps(a.T, a.Dk, k, c),
	}
}

// TableBytes is the measured footprint of the stored tables.
func (a *AttentionKernel) TableBytes() int {
	return len(a.denTable)*8 + a.qk.storedBytes() + a.qkv.storedBytes()
}

// Name identifies the kernel.
func (a *AttentionKernel) Name() string {
	return fmt.Sprintf("attention-kernel(T=%d,Dk=%d)", a.T, a.Dk)
}

// MSAKernel is the tabular form of a full multi-head self-attention block:
// linear kernels for the Q/K/V projections, one attention kernel per head,
// and a linear kernel for the output projection.
type MSAKernel struct {
	D, H, Dh   int
	WQ, WK, WV *LinearKernel
	Heads      []*AttentionKernel
	WO         *LinearKernel
}

// Query runs the tabular MSA for one sample (T x D).
func (m *MSAKernel) Query(x *mat.Matrix) *mat.Matrix {
	q := m.WQ.Query(x)
	k := m.WK.Query(x)
	v := m.WV.Query(x)
	t := x.Rows
	concat := mat.New(t, m.D)
	for h := 0; h < m.H; h++ {
		lo, hi := h*m.Dh, (h+1)*m.Dh
		oh := m.Heads[h].Query(q.SliceCols(lo, hi), k.SliceCols(lo, hi), v.SliceCols(lo, hi))
		for i := 0; i < t; i++ {
			copy(concat.Row(i)[lo:hi], oh.Row(i))
		}
	}
	return m.WO.Query(concat)
}

// Cost sums the projection and head costs; heads run in parallel so latency
// counts a single head.
func (m *MSAKernel) Cost() Cost {
	c := m.WQ.Cost() // Q/K/V projections run in parallel: one latency
	c.StorageBits += m.WK.Cost().StorageBits + m.WV.Cost().StorageBits
	c.Ops += m.WK.Cost().Ops + m.WV.Cost().Ops
	if len(m.Heads) > 0 {
		hc := m.Heads[0].Cost()
		c.LatencyCycles += hc.LatencyCycles
		for _, h := range m.Heads {
			c.StorageBits += h.Cost().StorageBits
			c.Ops += h.Cost().Ops
		}
	}
	oc := m.WO.Cost()
	c.LatencyCycles += oc.LatencyCycles
	c.StorageBits += oc.StorageBits
	c.Ops += oc.Ops
	return c
}

// Name identifies the block.
func (m *MSAKernel) Name() string { return fmt.Sprintf("msa-kernel(D=%d,H=%d)", m.D, m.H) }
