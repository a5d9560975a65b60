package nn

import (
	"fmt"
	"math"
	"math/rand"

	"dart/internal/mat"
)

// MultiHeadSelfAttention implements Eq. 3-4 of the paper: Q, K, V are
// projected from the same input by per-layer weight matrices, h scaled
// dot-product attention heads run in parallel, and an output projection
// recombines the heads.
//
// The projections are ordinary Linear layers so that the tabularizer can
// convert them with the linear kernel, leaving only the attention core
// (softmax(QKᵀ/√Dh)·V per head) for the attention kernel.
type MultiHeadSelfAttention struct {
	D, Heads, Dh   int
	WQ, WK, WV, WO *Linear
}

// NewMultiHeadSelfAttention constructs an MSA block over dimension d with the
// given head count; d must be divisible by heads.
func NewMultiHeadSelfAttention(name string, d, heads int, rng *rand.Rand) *MultiHeadSelfAttention {
	if d%heads != 0 {
		panic(fmt.Sprintf("nn: attention dim %d not divisible by %d heads", d, heads))
	}
	return &MultiHeadSelfAttention{
		D: d, Heads: heads, Dh: d / heads,
		WQ: NewLinear(name+".wq", d, d, rng),
		WK: NewLinear(name+".wk", d, d, rng),
		WV: NewLinear(name+".wv", d, d, rng),
		WO: NewLinear(name+".wo", d, d, rng),
	}
}

// headView returns the Dh columns of head h from row matrix m (T x D).
func headView(m *mat.Matrix, h, dh int) *mat.Matrix {
	return m.SliceCols(h*dh, (h+1)*dh)
}

// headScores returns head h's attention matrix softmax(Q_h·K_hᵀ/√Dh), T x T,
// for one sample's projected queries and keys.
func (a *MultiHeadSelfAttention) headScores(qs, ks *mat.Matrix, h int) *mat.Matrix {
	scores := mat.MulTransB(headView(qs, h, a.Dh), headView(ks, h, a.Dh)).Scale(1 / math.Sqrt(float64(a.Dh)))
	scores.RowSoftmax()
	return scores
}

// Forward computes multi-head scaled dot-product self-attention.
func (a *MultiHeadSelfAttention) Forward(x *mat.Tensor) *mat.Tensor {
	y, _ := a.Train(x)
	return y
}

// Train computes multi-head scaled dot-product self-attention; its Backprop
// propagates through the output projection, the per-head attention cores
// (including the softmax Jacobian), and the Q/K/V projections.
func (a *MultiHeadSelfAttention) Train(x *mat.Tensor) (*mat.Tensor, Backprop) {
	q, backQ := a.WQ.Train(x)
	k, backK := a.WK.Train(x)
	v, backV := a.WV.Train(x)
	n, t := x.N, x.T
	attn := make([][]*mat.Matrix, n) // [sample][head] softmax matrix, T x T
	concat := mat.NewTensor(n, t, a.D)
	for s := 0; s < n; s++ {
		attn[s] = make([]*mat.Matrix, a.Heads)
		qs, ks, vs := q.Sample(s), k.Sample(s), v.Sample(s)
		out := concat.Sample(s)
		for h := 0; h < a.Heads; h++ {
			scores := a.headScores(qs, ks, h)
			attn[s][h] = scores
			oh := mat.Mul(scores, headView(vs, h, a.Dh)) // T x Dh
			for i := 0; i < t; i++ {
				copy(out.Row(i)[h*a.Dh:(h+1)*a.Dh], oh.Row(i))
			}
		}
	}
	y, backO := a.WO.Train(concat)
	return y, func(grad *mat.Tensor) *mat.Tensor {
		dConcat := backO(grad)
		dq := mat.NewTensor(n, t, a.D)
		dk := mat.NewTensor(n, t, a.D)
		dv := mat.NewTensor(n, t, a.D)
		scale := 1 / math.Sqrt(float64(a.Dh))
		for s := 0; s < n; s++ {
			qs, ks, vs := q.Sample(s), k.Sample(s), v.Sample(s)
			dqs, dks, dvs := dq.Sample(s), dk.Sample(s), dv.Sample(s)
			gs := dConcat.Sample(s)
			for h := 0; h < a.Heads; h++ {
				qh := headView(qs, h, a.Dh)
				kh := headView(ks, h, a.Dh)
				vh := headView(vs, h, a.Dh)
				attn := attn[s][h]
				// Gradient of this head's output slice.
				goh := gs.SliceCols(h*a.Dh, (h+1)*a.Dh) // T x Dh
				// dV = Aᵀ · dO
				dvh := mat.MulTransA(attn, goh)
				// dA = dO · Vᵀ
				dA := mat.MulTransB(goh, vh) // T x T
				// Softmax backward per row: dS = A ⊙ (dA - Σⱼ dAⱼAⱼ)
				dS := mat.New(t, t)
				for i := 0; i < t; i++ {
					arow := attn.Row(i)
					darow := dA.Row(i)
					var dot float64
					for j, av := range arow {
						dot += darow[j] * av
					}
					srow := dS.Row(i)
					for j, av := range arow {
						srow[j] = av * (darow[j] - dot)
					}
				}
				dS.Scale(scale)
				// dQ = dS · K ; dK = dSᵀ · Q
				dqh := mat.Mul(dS, kh)
				dkh := mat.MulTransA(dS, qh)
				for i := 0; i < t; i++ {
					copy(dqs.Row(i)[h*a.Dh:(h+1)*a.Dh], dqh.Row(i))
					copy(dks.Row(i)[h*a.Dh:(h+1)*a.Dh], dkh.Row(i))
					copy(dvs.Row(i)[h*a.Dh:(h+1)*a.Dh], dvh.Row(i))
				}
			}
		}
		gx := backQ(dq)
		gxk := backK(dk)
		gxv := backV(dv)
		out := gx.Clone()
		for i := range out.Data {
			out.Data[i] += gxk.Data[i] + gxv.Data[i]
		}
		return out
	}
}

// Params returns the parameters of the four projections.
func (a *MultiHeadSelfAttention) Params() []*Param {
	var ps []*Param
	for _, l := range []*Linear{a.WQ, a.WK, a.WV, a.WO} {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Name reports the layer name.
func (a *MultiHeadSelfAttention) Name() string { return "msa" }
