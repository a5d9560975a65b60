package kd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dart/internal/mat"
	"dart/internal/nn"
)

func TestTSigmoidSoftening(t *testing.T) {
	// Higher temperature pulls outputs toward 0.5.
	y := 3.0
	z1 := TSigmoid(y, 1)
	z4 := TSigmoid(y, 4)
	if !(z1 > z4 && z4 > 0.5) {
		t.Fatalf("softening broken: T=1 %v, T=4 %v", z1, z4)
	}
	if TSigmoid(0, 2) != 0.5 {
		t.Fatal("TSigmoid(0) != 0.5")
	}
	// T=1 reduces to the plain sigmoid.
	if math.Abs(TSigmoid(1.3, 1)-1/(1+math.Exp(-1.3))) > 1e-12 {
		t.Fatal("T=1 is not the identity temperature")
	}
}

func TestBernoulliKLProperties(t *testing.T) {
	if got := BernoulliKL(0.3, 0.3); math.Abs(got) > 1e-9 {
		t.Fatalf("KL(p,p) = %v", got)
	}
	f := func(a, b float64) bool {
		p := math.Abs(math.Mod(a, 1))
		q := math.Abs(math.Mod(b, 1))
		return BernoulliKL(p, q) >= -1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Asymmetric in general.
	if BernoulliKL(0.9, 0.5) == BernoulliKL(0.5, 0.9) {
		t.Fatal("KL unexpectedly symmetric")
	}
}

func TestLossReducesToBCEAtLambdaZero(t *testing.T) {
	s := mat.TensorFromSlice(1, 1, 3, []float64{0.5, -1, 2})
	tt := mat.TensorFromSlice(1, 1, 3, []float64{1.5, 0, 1})
	y := mat.TensorFromSlice(1, 1, 3, []float64{1, 0, 1})
	lossKD, gradKD := Loss(s, tt, y, 0, 2)
	lossBCE, gradBCE := nn.BCEWithLogits(s, y)
	if math.Abs(lossKD-lossBCE) > 1e-12 {
		t.Fatalf("λ=0 loss %v != BCE %v", lossKD, lossBCE)
	}
	for i := range gradKD.Data {
		if math.Abs(gradKD.Data[i]-gradBCE.Data[i]) > 1e-12 {
			t.Fatal("λ=0 gradient differs from BCE")
		}
	}
}

func TestLossZeroWhenStudentMatchesTeacherAndTargets(t *testing.T) {
	// Student logits == teacher logits and both perfectly confident and
	// correct: KD term ~0, BCE term ~0.
	s := mat.TensorFromSlice(1, 1, 2, []float64{30, -30})
	y := mat.TensorFromSlice(1, 1, 2, []float64{1, 0})
	loss, _ := Loss(s, s.Clone(), y, 0.5, 2)
	if loss > 1e-6 {
		t.Fatalf("matched loss = %v", loss)
	}
}

func TestLossGradientNumerically(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := mat.NewTensor(1, 1, 4)
	tt := mat.NewTensor(1, 1, 4)
	y := mat.TensorFromSlice(1, 1, 4, []float64{1, 0, 1, 0})
	for i := range s.Data {
		s.Data[i] = rng.NormFloat64()
		tt.Data[i] = rng.NormFloat64()
	}
	const lambda, temp = 0.7, 3.0
	_, grad := Loss(s, tt, y, lambda, temp)
	const h = 1e-6
	for i := range s.Data {
		orig := s.Data[i]
		s.Data[i] = orig + h
		lp, _ := Loss(s, tt, y, lambda, temp)
		s.Data[i] = orig - h
		lm, _ := Loss(s, tt, y, lambda, temp)
		s.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-grad.Data[i]) > 1e-5 {
			t.Fatalf("grad[%d] analytic %v vs numeric %v", i, grad.Data[i], num)
		}
	}
}

// distillationSetup trains a teacher on a synthetic multi-label task and
// returns (teacher, data).
func distillationSetup(seed int64) (nn.Layer, *mat.Tensor, *mat.Tensor) {
	rng := rand.New(rand.NewSource(seed))
	cfg := nn.TransformerConfig{T: 4, DIn: 4, DModel: 16, DFF: 32, DOut: 4, Heads: 2, Layers: 2}
	teacher := nn.NewTransformerPredictor(cfg, rng)
	n := 128
	x := mat.NewTensor(n, cfg.T, cfg.DIn)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	y := mat.NewTensor(n, 1, cfg.DOut)
	for s := 0; s < n; s++ {
		sm := x.Sample(s)
		for d := 0; d < cfg.DOut; d++ {
			var sum float64
			for tt := 0; tt < cfg.T; tt++ {
				sum += sm.At(tt, d)
			}
			if sum > 0 {
				y.Sample(s).Data[d] = 1
			}
		}
	}
	tr := nn.NewTrainer(teacher, nn.NewAdam(0.005), 32, rng)
	for e := 0; e < 25; e++ {
		tr.TrainEpoch(x, y, nn.BCEWithLogits)
	}
	return teacher, x, y
}

func TestDistillationLossDecreases(t *testing.T) {
	teacher, x, y := distillationSetup(1)
	rng := rand.New(rand.NewSource(2))
	student := nn.NewTransformerPredictor(nn.TransformerConfig{
		T: 4, DIn: 4, DModel: 8, DFF: 8, DOut: 4, Heads: 2, Layers: 1,
	}, rng)
	cfg := DefaultConfig()
	cfg.Epochs, cfg.LR = 12, 0.005
	d := NewDistiller(teacher, student, cfg, rng)
	losses := d.Run(x, y)
	if len(losses) != 12 {
		t.Fatalf("expected 12 epoch losses, got %d", len(losses))
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("distillation loss did not decrease: %v -> %v", losses[0], losses[len(losses)-1])
	}
}

func TestDistilledStudentTracksTeacher(t *testing.T) {
	teacher, x, y := distillationSetup(3)
	rng := rand.New(rand.NewSource(4))
	student := nn.NewTransformerPredictor(nn.TransformerConfig{
		T: 4, DIn: 4, DModel: 8, DFF: 8, DOut: 4, Heads: 2, Layers: 1,
	}, rng)
	tl := teacher.Forward(x)
	before := mat.CosineSimilarity(student.Forward(x).AsMatrix(), tl.AsMatrix())
	cfg := DefaultConfig()
	cfg.Epochs, cfg.LR, cfg.Lambda = 20, 0.005, 0.8
	d := NewDistiller(teacher, student, cfg, rng)
	d.Run(x, y)
	after := mat.CosineSimilarity(student.Forward(x).AsMatrix(), tl.AsMatrix())
	if after <= before {
		t.Fatalf("student/teacher cosine did not improve: %v -> %v", before, after)
	}
	if after < 0.5 {
		t.Fatalf("distilled student weakly matches teacher: cosine %v", after)
	}
}

func TestConfigDefaults(t *testing.T) {
	// NaN sentinels select the defaults; LR/Batch/Epochs still zero-fill.
	c := Config{Lambda: math.NaN(), Temperature: math.NaN()}.withDefaults()
	def := DefaultConfig()
	if c != def {
		t.Fatalf("NaN sentinels resolved to %+v, want %+v", c, def)
	}
	if def.Lambda != 0.5 || def.Temperature != 2 {
		t.Fatalf("unexpected experiment defaults: %+v", def)
	}
}

// TestLambdaBoundariesHonored is the regression test for the zero-sentinel
// bug: an explicitly-set Lambda of 0 (pure hard loss) used to be clobbered to
// 0.5 by withDefaults, and Temperature 0 silently became 2. Both boundary
// lambdas must now survive config resolution intact.
func TestLambdaBoundariesHonored(t *testing.T) {
	for _, lambda := range []float64{0, 1} {
		c := Config{Lambda: lambda, Temperature: 2}.withDefaults()
		if c.Lambda != lambda {
			t.Fatalf("Lambda %v clobbered to %v", lambda, c.Lambda)
		}
	}
	// The distiller must keep the boundary value too (it resolves defaults
	// in its constructor).
	rng := rand.New(rand.NewSource(1))
	cfg := nn.TransformerConfig{T: 2, DIn: 2, DModel: 4, DFF: 4, DOut: 2, Heads: 2, Layers: 1}
	teacher := nn.NewTransformerPredictor(cfg, rng)
	student := nn.NewTransformerPredictor(cfg, rng)
	d := NewDistiller(teacher, student, Config{Lambda: 0, Temperature: 2, Epochs: 1}, rng)
	if d.Cfg.Lambda != 0 {
		t.Fatalf("NewDistiller clobbered Lambda 0 to %v", d.Cfg.Lambda)
	}
}

// TestPureHardLossTrainsLikeBCE: with λ = 0 the distiller's epoch loss must
// equal plain BCE training of the same student — the teacher contributes
// nothing. This fails on the pre-fix code, which silently trained at λ = 0.5.
func TestPureHardLossTrainsLikeBCE(t *testing.T) {
	teacher, x, y := distillationSetup(7)
	arch := nn.TransformerConfig{T: 4, DIn: 4, DModel: 8, DFF: 8, DOut: 4, Heads: 2, Layers: 1}
	mkStudent := func() *nn.Sequential {
		return nn.NewTransformerPredictor(arch, rand.New(rand.NewSource(9)))
	}
	a, b := mkStudent(), mkStudent()

	d := NewDistiller(teacher, a, Config{Lambda: 0, Temperature: 2, Epochs: 2, LR: 0.005}, rand.New(rand.NewSource(5)))
	kdLosses := d.Run(x, y)

	tr := nn.NewTrainer(b, nn.NewAdam(0.005), 32, rand.New(rand.NewSource(5)))
	for e := 0; e < 2; e++ {
		bce := tr.TrainEpoch(x, y, nn.BCEWithLogits)
		if math.Abs(kdLosses[e]-bce) > 1e-12 {
			t.Fatalf("epoch %d: λ=0 distillation loss %v != plain BCE %v", e, kdLosses[e], bce)
		}
	}
}

// TestPureSoftLossIgnoresTargets: at λ = 1 the loss must not depend on the
// hard targets at all.
func TestPureSoftLossIgnoresTargets(t *testing.T) {
	s := mat.TensorFromSlice(1, 1, 3, []float64{0.5, -1, 2})
	tt := mat.TensorFromSlice(1, 1, 3, []float64{1.5, 0, 1})
	y1 := mat.TensorFromSlice(1, 1, 3, []float64{1, 0, 1})
	y2 := mat.TensorFromSlice(1, 1, 3, []float64{0, 1, 0})
	l1, g1 := Loss(s, tt, y1, 1, 2)
	l2, g2 := Loss(s, tt, y2, 1, 2)
	if l1 != l2 {
		t.Fatalf("λ=1 loss depends on targets: %v vs %v", l1, l2)
	}
	for i := range g1.Data {
		if g1.Data[i] != g2.Data[i] {
			t.Fatal("λ=1 gradient depends on targets")
		}
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	expectPanic := func(name string, c Config) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: withDefaults did not panic", name)
			}
		}()
		c.withDefaults()
	}
	expectPanic("zero temperature", Config{Lambda: 0.5})
	expectPanic("negative temperature", Config{Lambda: 0.5, Temperature: -1})
	expectPanic("lambda above 1", Config{Lambda: 1.5, Temperature: 2})
	expectPanic("negative lambda", Config{Lambda: -0.1, Temperature: 2})
}
