package nn

import (
	"math"
	"math/rand"

	"dart/internal/mat"
)

// LSTM is a single-layer LSTM that consumes a [N, T, D] sequence and emits
// the final hidden state as [N, 1, H]. It exists to reproduce the
// Voyager-class recurrent baseline: the paper contrasts LSTM predictors
// (accurate but serial and slow) with attention models and DART.
//
// Gate layout in the stacked weight matrices is [input, forget, cell, output].
type LSTM struct {
	In, Hidden int
	Wx         *Param // [4H, In]
	Wh         *Param // [4H, H]
	B          *Param // [1, 4H]
}

// NewLSTM builds an LSTM with Xavier-uniform weights and forget bias 1.
func NewLSTM(name string, in, hidden int, rng *rand.Rand) *LSTM {
	l := &LSTM{
		In: in, Hidden: hidden,
		Wx: newParam(name+".wx", 4*hidden, in),
		Wh: newParam(name+".wh", 4*hidden, hidden),
		B:  newParam(name+".b", 1, 4*hidden),
	}
	bx := math.Sqrt(6.0 / float64(in+hidden))
	l.Wx.W.RandUniform(rng, bx)
	l.Wh.W.RandUniform(rng, bx)
	// Forget-gate bias of 1 stabilises early training.
	for j := hidden; j < 2*hidden; j++ {
		l.B.W.Data[j] = 1
	}
	return l
}

func tanhf(x float64) float64 { return math.Tanh(x) }

// Forward runs the recurrence and returns the last hidden state [N, 1, H].
func (l *LSTM) Forward(x *mat.Tensor) *mat.Tensor {
	y, _ := l.Train(x)
	return y
}

// Train runs the recurrence and returns the last hidden state [N, 1, H]; its
// Backprop runs truncated-free BPTT over the whole sequence.
func (l *LSTM) Train(x *mat.Tensor) (*mat.Tensor, Backprop) {
	n, t := x.N, x.T
	h := mat.New(n, l.Hidden)
	c := mat.New(n, l.Hidden)
	// Per-step caches, indexed [t]: gate activations and states.
	gates := make([]*mat.Matrix, t)     // N x 4H, post-activation (i,f,g,o)
	cells := make([]*mat.Matrix, t)     // N x H, cell state c_t
	hiddens := make([]*mat.Matrix, t)   // N x H, hidden state h_t
	tanhCells := make([]*mat.Matrix, t) // N x H, tanh(c_t)
	for step := 0; step < t; step++ {
		// xt: N x In slice of the tensor at position `step`.
		xt := mat.New(n, l.In)
		for s := 0; s < n; s++ {
			copy(xt.Row(s), x.Sample(s).Row(step))
		}
		z := mat.MulTransB(xt, l.Wx.W) // N x 4H
		z.AddInPlace(mat.MulTransB(h, l.Wh.W))
		z.AddRowVector(l.B.W.Data)
		// Activate the gates in place.
		H := l.Hidden
		for s := 0; s < n; s++ {
			row := z.Row(s)
			for j := 0; j < H; j++ {
				row[j] = SigmoidFn(row[j])         // i
				row[H+j] = SigmoidFn(row[H+j])     // f
				row[2*H+j] = tanhf(row[2*H+j])     // g
				row[3*H+j] = SigmoidFn(row[3*H+j]) // o
			}
		}
		newC := mat.New(n, H)
		newH := mat.New(n, H)
		tc := mat.New(n, H)
		for s := 0; s < n; s++ {
			zr := z.Row(s)
			cr := c.Row(s)
			ncr := newC.Row(s)
			nhr := newH.Row(s)
			tcr := tc.Row(s)
			for j := 0; j < H; j++ {
				ncr[j] = zr[H+j]*cr[j] + zr[j]*zr[2*H+j]
				tcr[j] = tanhf(ncr[j])
				nhr[j] = zr[3*H+j] * tcr[j]
			}
		}
		gates[step] = z
		cells[step] = newC
		hiddens[step] = newH
		tanhCells[step] = tc
		h, c = newH, newC
	}
	out := mat.NewTensor(n, 1, l.Hidden)
	for s := 0; s < n; s++ {
		copy(out.Sample(s).Row(0), h.Row(s))
	}
	return out, func(grad *mat.Tensor) *mat.Tensor {
		H := l.Hidden
		dh := mat.New(n, H)
		for s := 0; s < n; s++ {
			copy(dh.Row(s), grad.Sample(s).Row(0))
		}
		dc := mat.New(n, H)
		dx := mat.NewTensor(n, t, l.In)
		for step := t - 1; step >= 0; step-- {
			z := gates[step]
			tc := tanhCells[step]
			var prevC *mat.Matrix
			if step > 0 {
				prevC = cells[step-1]
			} else {
				prevC = mat.New(n, H)
			}
			dz := mat.New(n, 4*H)
			for s := 0; s < n; s++ {
				zr := z.Row(s)
				dhr := dh.Row(s)
				dcr := dc.Row(s)
				tcr := tc.Row(s)
				pcr := prevC.Row(s)
				dzr := dz.Row(s)
				for j := 0; j < H; j++ {
					i, f, g, o := zr[j], zr[H+j], zr[2*H+j], zr[3*H+j]
					dco := dcr[j] + dhr[j]*o*(1-tcr[j]*tcr[j])
					dzr[j] = dco * g * i * (1 - i)             // d pre-i
					dzr[H+j] = dco * pcr[j] * f * (1 - f)      // d pre-f
					dzr[2*H+j] = dco * i * (1 - g*g)           // d pre-g
					dzr[3*H+j] = dhr[j] * tcr[j] * o * (1 - o) // d pre-o
					dcr[j] = dco * f                           // carries to step-1
				}
			}
			// Parameter gradients.
			xt := mat.New(n, l.In)
			for s := 0; s < n; s++ {
				copy(xt.Row(s), x.Sample(s).Row(step))
			}
			var hPrev *mat.Matrix
			if step > 0 {
				hPrev = hiddens[step-1]
			} else {
				hPrev = mat.New(n, H)
			}
			l.Wx.G.AddInPlace(mat.MulTransA(dz, xt))
			l.Wh.G.AddInPlace(mat.MulTransA(dz, hPrev))
			for s := 0; s < n; s++ {
				for j, v := range dz.Row(s) {
					l.B.G.Data[j] += v
				}
			}
			// Input and recurrent gradients.
			dxt := mat.Mul(dz, l.Wx.W) // N x In
			for s := 0; s < n; s++ {
				copy(dx.Sample(s).Row(step), dxt.Row(s))
			}
			dh = mat.Mul(dz, l.Wh.W) // N x H, gradient into h_{t-1}
		}
		return dx
	}
}

// Params returns the LSTM parameters.
func (l *LSTM) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }

// Name reports the layer name.
func (l *LSTM) Name() string { return "lstm" }

// NewLSTMPredictor builds the Voyager-class baseline: LSTM over the input
// sequence followed by a linear head emitting delta-bitmap logits.
func NewLSTMPredictor(din, hidden, dout int, rng *rand.Rand) *Sequential {
	return NewSequential("lstm-predictor",
		NewLSTM("lstm", din, hidden, rng),
		NewLinear("lstm.head", hidden, dout, rng),
	)
}
