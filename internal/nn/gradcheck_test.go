package nn

import (
	"math"
	"math/rand"
	"testing"

	"dart/internal/mat"
)

// scalarLoss projects the layer output onto fixed random weights so the
// gradient check has a scalar objective: f = Σ w·layer(x).
func scalarLoss(l Layer, x *mat.Tensor, w []float64) float64 {
	y := l.Forward(x)
	var s float64
	for i, v := range y.Data {
		s += v * w[i]
	}
	return s
}

// checkGradients verifies analytic input and parameter gradients against
// central finite differences.
func checkGradients(t *testing.T, l Layer, x *mat.Tensor, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	y := l.Forward(x)
	w := make([]float64, len(y.Data))
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	// Analytic gradients.
	for _, p := range l.Params() {
		p.ZeroGrad()
	}
	gradOut := mat.TensorFromSlice(y.N, y.T, y.D, append([]float64(nil), w...))
	_, back := l.Train(x)
	dx := back(gradOut)

	const h = 1e-5
	// Input gradient.
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + h
		fp := scalarLoss(l, x, w)
		x.Data[i] = orig - h
		fm := scalarLoss(l, x, w)
		x.Data[i] = orig
		num := (fp - fm) / (2 * h)
		if math.Abs(num-dx.Data[i]) > tol*(1+math.Abs(num)) {
			t.Fatalf("%s: input grad[%d] analytic %.6g vs numeric %.6g", l.Name(), i, dx.Data[i], num)
		}
	}
	// Parameter gradients (sample a subset for speed on big layers).
	for _, p := range l.Params() {
		stride := 1
		if len(p.W.Data) > 64 {
			stride = len(p.W.Data) / 37
		}
		for i := 0; i < len(p.W.Data); i += stride {
			orig := p.W.Data[i]
			p.W.Data[i] = orig + h
			fp := scalarLoss(l, x, w)
			p.W.Data[i] = orig - h
			fm := scalarLoss(l, x, w)
			p.W.Data[i] = orig
			num := (fp - fm) / (2 * h)
			if math.Abs(num-p.G.Data[i]) > tol*(1+math.Abs(num)) {
				t.Fatalf("%s: param %s grad[%d] analytic %.6g vs numeric %.6g",
					l.Name(), p.Name, i, p.G.Data[i], num)
			}
		}
	}
}

func randTensor(rng *rand.Rand, n, t, d int) *mat.Tensor {
	x := mat.NewTensor(n, t, d)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return x
}

func TestLinearGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear("lin", 4, 3, rng)
	checkGradients(t, l, randTensor(rng, 2, 3, 4), 1e-5)
}

func TestReLUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randTensor(rng, 2, 2, 5)
	// Keep activations away from the kink at 0.
	for i := range x.Data {
		if math.Abs(x.Data[i]) < 0.1 {
			x.Data[i] += 0.5
		}
	}
	checkGradients(t, NewReLU(), x, 1e-5)
}

func TestSigmoidGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	checkGradients(t, &Sigmoid{}, randTensor(rng, 2, 2, 4), 1e-5)
}

func TestLayerNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	checkGradients(t, NewLayerNorm("ln", 6), randTensor(rng, 2, 3, 6), 1e-4)
}

func TestMeanPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	checkGradients(t, NewMeanPool(), randTensor(rng, 2, 4, 3), 1e-6)
}

func TestAttentionGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := NewMultiHeadSelfAttention("msa", 4, 2, rng)
	checkGradients(t, a, randTensor(rng, 2, 3, 4), 1e-4)
}

func TestResidualGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := NewResidual(NewSequential("b",
		NewLayerNorm("ln", 4),
		NewLinear("l1", 4, 4, rng),
	))
	checkGradients(t, r, randTensor(rng, 2, 2, 4), 1e-4)
}

func TestLSTMGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	l := NewLSTM("lstm", 3, 4, rng)
	checkGradients(t, l, randTensor(rng, 2, 3, 3), 1e-4)
}

func TestPositionalEmbeddingGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	p := NewPositionalEmbedding("pos", 3, 4, rng)
	checkGradients(t, p, randTensor(rng, 2, 3, 4), 1e-6)
}

func TestPositionalEmbeddingBreaksPermutationInvariance(t *testing.T) {
	// With the embedding, swapping two history positions must change the
	// model output (the motivation for the layer).
	rng := rand.New(rand.NewSource(11))
	m := NewTransformerPredictor(TransformerConfig{
		T: 4, DIn: 4, DModel: 8, DFF: 16, DOut: 4, Heads: 2, Layers: 1,
	}, rng)
	x := randTensor(rng, 1, 4, 4)
	y1 := m.Forward(x.Clone())
	// Swap rows 0 and 3.
	swapped := x.Clone()
	s := swapped.Sample(0)
	for d := 0; d < 4; d++ {
		r0, r3 := s.Row(0), s.Row(3)
		r0[d], r3[d] = r3[d], r0[d]
	}
	y2 := m.Forward(swapped)
	if equalApprox(y1.AsMatrix(), y2.AsMatrix(), 1e-9) {
		t.Fatal("model is permutation-invariant despite positional embedding")
	}
}

func TestTransformerEndToEndGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := NewTransformerPredictor(TransformerConfig{
		T: 3, DIn: 4, DModel: 4, DFF: 8, DOut: 5, Heads: 2, Layers: 1,
	}, rng)
	checkGradients(t, m, randTensor(rng, 2, 3, 4), 1e-3)
}

// equalApprox reports whether a and b have identical shape and elementwise
// differences no larger than tol.
func equalApprox(a, b *mat.Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}
