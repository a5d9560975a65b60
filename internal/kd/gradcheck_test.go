package kd

import (
	"math"
	"math/rand"
	"testing"

	"dart/internal/mat"
	"dart/internal/nn"
)

// gradCheckCases spans the λ boundaries (0 = pure hard loss, 1 = pure KD —
// the settings the zero-sentinel fix made requestable) plus interior mixes,
// at identity and softening temperatures.
var gradCheckCases = []struct {
	lambda, temp float64
}{
	{0, 1}, {0, 2},
	{0.3, 1}, {0.5, 2}, {0.7, 4},
	{1, 1}, {1, 2},
}

// TestLossGradientAtLambdaBoundaries checks the analytic gradient of the
// combined KD+BCE loss with respect to the student logits against central
// finite differences, at interior λ and at both boundaries.
func TestLossGradientAtLambdaBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, tc := range gradCheckCases {
		s := mat.NewTensor(2, 1, 4)
		tl := mat.NewTensor(2, 1, 4)
		y := mat.NewTensor(2, 1, 4)
		for i := range s.Data {
			s.Data[i] = rng.NormFloat64()
			tl.Data[i] = rng.NormFloat64()
			y.Data[i] = float64(rng.Intn(2))
		}
		_, grad := Loss(s, tl, y, tc.lambda, tc.temp)
		const h = 1e-6
		for i := range s.Data {
			orig := s.Data[i]
			s.Data[i] = orig + h
			lp, _ := Loss(s, tl, y, tc.lambda, tc.temp)
			s.Data[i] = orig - h
			lm, _ := Loss(s, tl, y, tc.lambda, tc.temp)
			s.Data[i] = orig
			num := (lp - lm) / (2 * h)
			if math.Abs(num-grad.Data[i]) > 1e-5*(1+math.Abs(num)) {
				t.Fatalf("λ=%v T=%v: grad[%d] analytic %v vs numeric %v",
					tc.lambda, tc.temp, i, grad.Data[i], num)
			}
		}
	}
}

// TestLossGradientThroughStudentNetwork extends the nn gradcheck harness to
// kd.Loss: the gradient kd.Loss feeds into a Train Backprop must produce
// parameter gradients matching finite differences of the end-to-end
// distillation objective, for interior λ and both boundaries.
func TestLossGradientThroughStudentNetwork(t *testing.T) {
	arch := nn.TransformerConfig{T: 3, DIn: 4, DModel: 4, DFF: 8, DOut: 5, Heads: 2, Layers: 1}
	rng := rand.New(rand.NewSource(23))
	x := mat.NewTensor(2, arch.T, arch.DIn)
	tl := mat.NewTensor(2, 1, arch.DOut)
	y := mat.NewTensor(2, 1, arch.DOut)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range tl.Data {
		tl.Data[i] = rng.NormFloat64()
		y.Data[i] = float64(rng.Intn(2))
	}
	objective := func(m nn.Layer, lambda, temp float64) float64 {
		loss, _ := Loss(m.Forward(x), tl, y, lambda, temp)
		return loss
	}
	for _, tc := range gradCheckCases {
		student := nn.NewTransformerPredictor(arch, rand.New(rand.NewSource(31)))
		for _, p := range student.Params() {
			p.ZeroGrad()
		}
		logits, back := student.Train(x)
		_, grad := Loss(logits, tl, y, tc.lambda, tc.temp)
		back(grad)

		const h = 1e-5
		for _, p := range student.Params() {
			stride := 1
			if len(p.W.Data) > 64 {
				stride = len(p.W.Data) / 37
			}
			for i := 0; i < len(p.W.Data); i += stride {
				orig := p.W.Data[i]
				p.W.Data[i] = orig + h
				fp := objective(student, tc.lambda, tc.temp)
				p.W.Data[i] = orig - h
				fm := objective(student, tc.lambda, tc.temp)
				p.W.Data[i] = orig
				num := (fp - fm) / (2 * h)
				if math.Abs(num-p.G.Data[i]) > 1e-3*(1+math.Abs(num)) {
					t.Fatalf("λ=%v T=%v: param %s grad[%d] analytic %.6g vs numeric %.6g",
						tc.lambda, tc.temp, p.Name, i, p.G.Data[i], num)
				}
			}
		}
	}
}
