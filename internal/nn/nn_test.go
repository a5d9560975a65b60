package nn

import (
	"math"
	"math/rand"
	"testing"

	"dart/internal/mat"
)

func TestLinearForwardMatchesManual(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear("lin", 2, 2, rng)
	l.Weight.W.CopyFrom(mat.FromSlice(2, 2, []float64{1, 2, 3, 4}))
	copy(l.Bias.W.Data, []float64{10, 20})
	x := mat.TensorFromSlice(1, 1, 2, []float64{5, 6})
	y := l.Forward(x)
	// y = W·x + b = [1*5+2*6+10, 3*5+4*6+20] = [27, 59]
	if y.Data[0] != 27 || y.Data[1] != 59 {
		t.Fatalf("linear forward = %v", y.Data)
	}
}

func TestLayerNormNormalises(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ln := NewLayerNorm("ln", 8)
	x := randTensor(rng, 3, 2, 8)
	y := ln.Forward(x)
	for n := 0; n < y.N; n++ {
		for tt := 0; tt < y.T; tt++ {
			row := y.Sample(n).Row(tt)
			var mean, vr float64
			for _, v := range row {
				mean += v
			}
			mean /= 8
			for _, v := range row {
				vr += (v - mean) * (v - mean)
			}
			vr /= 8
			if math.Abs(mean) > 1e-9 || math.Abs(vr-1) > 1e-3 {
				t.Fatalf("layernorm row mean=%v var=%v", mean, vr)
			}
		}
	}
}

func TestAttentionRowsAreConvexCombinations(t *testing.T) {
	// With WV = identity and WO = identity, each output row must lie inside
	// the convex hull of the value rows, so its range is bounded by V's range.
	rng := rand.New(rand.NewSource(3))
	a := NewMultiHeadSelfAttention("msa", 4, 1, rng)
	setIdentity := func(l *Linear) {
		l.Weight.W.Zero()
		for i := 0; i < 4; i++ {
			l.Weight.W.Row(i)[i] = 1
		}
		for i := range l.Bias.W.Data {
			l.Bias.W.Data[i] = 0
		}
	}
	setIdentity(a.WV)
	setIdentity(a.WO)
	x := randTensor(rng, 1, 5, 4)
	y := a.Forward(x)
	xm := x.Sample(0)
	ym := y.Sample(0)
	for d := 0; d < 4; d++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < 5; i++ {
			v := xm.At(i, d)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		for i := 0; i < 5; i++ {
			v := ym.At(i, d)
			if v < lo-1e-9 || v > hi+1e-9 {
				t.Fatalf("attention output %v outside value hull [%v,%v]", v, lo, hi)
			}
		}
	}
}

func TestAttentionSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := NewMultiHeadSelfAttention("msa", 6, 2, rng)
	x := randTensor(rng, 2, 4, 6)
	q, k := a.WQ.Forward(x), a.WK.Forward(x)
	for s := 0; s < x.N; s++ {
		for h := 0; h < a.Heads; h++ {
			m := a.headScores(q.Sample(s), k.Sample(s), h)
			for i := 0; i < m.Rows; i++ {
				var s float64
				for _, v := range m.Row(i) {
					s += v
				}
				if math.Abs(s-1) > 1e-9 {
					t.Fatalf("attention row sums to %v", s)
				}
			}
		}
	}
}

func TestBCEWithLogitsMatchesDirect(t *testing.T) {
	logits := mat.TensorFromSlice(1, 1, 3, []float64{0.5, -1.2, 3.0})
	targets := mat.TensorFromSlice(1, 1, 3, []float64{1, 0, 1})
	loss, grad := BCEWithLogits(logits, targets)
	var want float64
	for i, z := range logits.Data {
		p := SigmoidFn(z)
		y := targets.Data[i]
		want += -(y*math.Log(p) + (1-y)*math.Log(1-p))
	}
	want /= 3
	if math.Abs(loss-want) > 1e-9 {
		t.Fatalf("BCE loss %v want %v", loss, want)
	}
	// Gradient: (σ(z)-y)/n
	for i, z := range logits.Data {
		g := (SigmoidFn(z) - targets.Data[i]) / 3
		if math.Abs(grad.Data[i]-g) > 1e-12 {
			t.Fatalf("BCE grad[%d] = %v want %v", i, grad.Data[i], g)
		}
	}
}

func TestBCEExtremeLogitsStable(t *testing.T) {
	logits := mat.TensorFromSlice(1, 1, 2, []float64{1000, -1000})
	targets := mat.TensorFromSlice(1, 1, 2, []float64{1, 0})
	loss, grad := BCEWithLogits(logits, targets)
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("BCE unstable: %v", loss)
	}
	if loss > 1e-6 {
		t.Fatalf("perfect prediction loss should be ~0, got %v", loss)
	}
	for _, g := range grad.Data {
		if math.IsNaN(g) {
			t.Fatal("NaN gradient")
		}
	}
}

func TestMSELoss(t *testing.T) {
	p := mat.TensorFromSlice(1, 1, 2, []float64{1, 3})
	y := mat.TensorFromSlice(1, 1, 2, []float64{0, 0})
	loss, grad := MSE(p, y)
	if math.Abs(loss-5) > 1e-12 { // (1+9)/2
		t.Fatalf("MSE = %v", loss)
	}
	if math.Abs(grad.Data[0]-1) > 1e-12 || math.Abs(grad.Data[1]-3) > 1e-12 {
		t.Fatalf("MSE grad = %v", grad.Data)
	}
}

func TestAdamTrainsTransformerOnSyntheticTask(t *testing.T) {
	// The model must learn "label j is set iff mean of feature j over the
	// sequence is positive" — exercising attention, FFN, pooling, and head.
	rng := rand.New(rand.NewSource(6))
	cfg := TransformerConfig{T: 4, DIn: 4, DModel: 8, DFF: 16, DOut: 4, Heads: 2, Layers: 1}
	m := NewTransformerPredictor(cfg, rng)
	n := 64
	x := randTensor(rng, n, cfg.T, cfg.DIn)
	y := mat.NewTensor(n, 1, cfg.DOut)
	for s := 0; s < n; s++ {
		sm := x.Sample(s)
		for d := 0; d < cfg.DIn; d++ {
			var sum float64
			for tt := 0; tt < cfg.T; tt++ {
				sum += sm.At(tt, d)
			}
			if sum > 0 {
				y.Sample(s).Data[d] = 1
			}
		}
	}
	tr := NewTrainer(m, NewAdam(0.01), 16, rng)
	first := tr.TrainEpoch(x, y, BCEWithLogits)
	var last float64
	for e := 0; e < 30; e++ {
		last = tr.TrainEpoch(x, y, BCEWithLogits)
	}
	if last > first*0.5 {
		t.Fatalf("Adam training barely reduced loss: %v -> %v", first, last)
	}
	// Training accuracy should be well above chance.
	logits := m.Forward(x)
	correct, total := 0, 0
	for i, z := range logits.Data {
		pred := 0.0
		if z > 0 {
			pred = 1
		}
		if pred == y.Data[i] {
			correct++
		}
		total++
	}
	if acc := float64(correct) / float64(total); acc < 0.8 {
		t.Fatalf("training accuracy %v < 0.8", acc)
	}
}

func TestLSTMPredictorTrains(t *testing.T) {
	// Label = 1 iff the last step's first feature is positive; the LSTM must
	// carry information across time.
	rng := rand.New(rand.NewSource(7))
	m := NewLSTMPredictor(2, 8, 1, rng)
	n := 64
	x := randTensor(rng, n, 3, 2)
	y := mat.NewTensor(n, 1, 1)
	for s := 0; s < n; s++ {
		if x.Sample(s).At(2, 0) > 0 {
			y.Sample(s).Data[0] = 1
		}
	}
	tr := NewTrainer(m, NewAdam(0.02), 16, rng)
	var last float64
	first := tr.TrainEpoch(x, y, BCEWithLogits)
	for e := 0; e < 40; e++ {
		last = tr.TrainEpoch(x, y, BCEWithLogits)
	}
	if last > first*0.5 {
		t.Fatalf("LSTM training barely reduced loss: %v -> %v", first, last)
	}
}

func TestParamCount(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	l := NewLinear("lin", 3, 2, rng)
	if got := ParamCount(l); got != 3*2+2 {
		t.Fatalf("ParamCount = %d", got)
	}
}

func TestTransformerConfigValidate(t *testing.T) {
	bad := TransformerConfig{T: 4, DIn: 4, DModel: 7, DFF: 8, DOut: 2, Heads: 2, Layers: 1}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected divisibility error")
	}
	if err := (TransformerConfig{}).Validate(); err == nil {
		t.Fatal("expected non-positive error")
	}
	good := TransformerConfig{T: 4, DIn: 4, DModel: 8, DFF: 8, DOut: 2, Heads: 2, Layers: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("unexpected error %v", err)
	}
}

func TestSequentialForwardUpTo(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := NewSequential("s",
		NewLinear("a", 2, 3, rng),
		NewReLU(),
		NewLinear("b", 3, 2, rng),
	)
	x := randTensor(rng, 1, 1, 2)
	mid := s.ForwardUpTo(x.Clone(), 2)
	if mid.D != 3 {
		t.Fatalf("intermediate D = %d", mid.D)
	}
	full := s.ForwardUpTo(x.Clone(), 3)
	direct := s.Forward(x.Clone())
	if !equalApprox(full.AsMatrix(), direct.AsMatrix(), 1e-12) {
		t.Fatal("ForwardUpTo(len) != Forward")
	}
}

// TestStudentConfigCompact: the derived student must be a valid transformer
// config that is strictly smaller than its teacher for every teacher in the
// configurator's design space, and idempotent shrinking must bottom out
// rather than producing a degenerate architecture.
func TestStudentConfigCompact(t *testing.T) {
	teachers := []TransformerConfig{
		{T: 8, DIn: 10, DModel: 64, DFF: 128, DOut: 64, Heads: 4, Layers: 2},
		{T: 8, DIn: 10, DModel: 32, DFF: 64, DOut: 64, Heads: 2, Layers: 1},
		{T: 4, DIn: 5, DModel: 16, DFF: 64, DOut: 16, Heads: 2, Layers: 2},
	}
	for _, tc := range teachers {
		s := StudentConfig(tc)
		if err := s.Validate(); err != nil {
			t.Fatalf("student of %+v invalid: %v", tc, err)
		}
		rng := rand.New(rand.NewSource(1))
		tp := ParamCount(NewTransformerPredictor(tc, rng))
		sp := ParamCount(NewTransformerPredictor(s, rng))
		if sp >= tp {
			t.Fatalf("student of %+v not smaller: %d params vs teacher %d", tc, sp, tp)
		}
		if s.T != tc.T || s.DIn != tc.DIn || s.DOut != tc.DOut {
			t.Fatalf("student changed interface dims: %+v -> %+v", tc, s)
		}
	}
	// Repeated shrinking must stay valid (bottoms out at 2 heads x 2 dims).
	c := teachers[0]
	for i := 0; i < 6; i++ {
		c = StudentConfig(c)
		if err := c.Validate(); err != nil {
			t.Fatalf("shrink %d invalid: %v (%+v)", i, err, c)
		}
	}
}
