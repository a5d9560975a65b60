package tabular

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"dart/internal/mat"
	"dart/internal/nn"
)

// clusteredTensor draws samples whose rows come from a few Gaussian clusters,
// the regime where product quantization is accurate.
func clusteredTensor(rng *rand.Rand, n, t, d, clusters int) *mat.Tensor {
	base := mat.New(clusters, d).Randn(rng, 2)
	x := mat.NewTensor(n, t, d)
	for s := 0; s < n; s++ {
		sm := x.Sample(s)
		for tt := 0; tt < t; tt++ {
			c := base.Row(rng.Intn(clusters))
			row := sm.Row(tt)
			for j, v := range c {
				row[j] = v + rng.NormFloat64()*0.05
			}
		}
	}
	return x
}

func relErr(approx, exact *mat.Matrix) float64 {
	var num, den float64
	for i, v := range exact.Data {
		num += math.Abs(approx.Data[i] - v)
		den += math.Abs(v)
	}
	return num / (den + 1e-12)
}

func TestLinearKernelApproximatesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := nn.NewLinear("lin", 8, 4, rng)
	train := clusteredTensor(rng, 64, 4, 8, 6)
	k := NewLinearKernel(l, train, KernelConfig{K: 16, C: 2}, rng)
	var worst float64
	for s := 0; s < 8; s++ {
		x := train.Sample(s)
		exact := l.Forward(mat.TensorFromSlice(1, 4, 8, append([]float64(nil), x.Data...)))
		approx := k.Query(x)
		if e := relErr(approx, exact.Sample(0)); e > worst {
			worst = e
		}
	}
	if worst > 0.15 {
		t.Fatalf("linear kernel relative error %v > 15%%", worst)
	}
}

func TestLinearKernelBiasFolding(t *testing.T) {
	// With zero weights the kernel output must be exactly the bias,
	// regardless of input: the bias lives in subspace 0 of the table.
	rng := rand.New(rand.NewSource(2))
	l := nn.NewLinear("lin", 4, 3, rng)
	l.Weight.W.Zero()
	copy(l.Bias.W.Data, []float64{1.5, -2, 0.25})
	train := clusteredTensor(rng, 16, 2, 4, 3)
	k := NewLinearKernel(l, train, KernelConfig{K: 4, C: 2}, rng)
	out := k.Query(train.Sample(0))
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		if math.Abs(row[0]-1.5) > 1e-9 || math.Abs(row[1]+2) > 1e-9 || math.Abs(row[2]-0.25) > 1e-9 {
			t.Fatalf("bias folding broken: row %v", row)
		}
	}
}

func TestLinearKernelExactOnPrototypeInputs(t *testing.T) {
	// Inputs that coincide with learned prototypes reproduce W·x + b exactly.
	rng := rand.New(rand.NewSource(3))
	l := nn.NewLinear("lin", 4, 2, rng)
	train := clusteredTensor(rng, 32, 1, 4, 2)
	k := NewLinearKernel(l, train, KernelConfig{K: 2, C: 1}, rng)
	// Build a query from prototype 0 of subspace 0.
	q := mat.New(1, 4)
	copy(q.Row(0), k.enc.Center(0, 0))
	got := k.Query(q)
	want := l.Forward(mat.TensorFromSlice(1, 1, 4, append([]float64(nil), q.Data...)))
	if !equalApprox(got, want.Sample(0), 1e-9) {
		t.Fatalf("prototype input not exact: %v vs %v", got.Data, want.Sample(0).Data)
	}
}

func TestLinearKernelNonDivisibleC(t *testing.T) {
	// D=6, C=4 does not divide; the kernel must fall back to a valid C.
	rng := rand.New(rand.NewSource(4))
	l := nn.NewLinear("lin", 6, 2, rng)
	train := clusteredTensor(rng, 16, 2, 6, 2)
	k := NewLinearKernel(l, train, KernelConfig{K: 4, C: 4}, rng)
	out := k.Query(train.Sample(0))
	if out.Rows != 2 || out.Cols != 2 {
		t.Fatalf("unexpected output shape %v", out)
	}
}

func TestAttentionKernelApproximatesAttention(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n, tt, dk := 48, 4, 4
	ts := AttentionTrainingSet{
		Q: clusteredTensor(rng, n, tt, dk, 4),
		K: clusteredTensor(rng, n, tt, dk, 4),
		V: clusteredTensor(rng, n, tt, dk, 4),
	}
	// Exact attention for comparison.
	scale := 1 / math.Sqrt(float64(dk))
	relForK := func(kProto int) float64 {
		ak := NewAttentionKernel(ts, KernelConfig{K: kProto, C: 2}, SoftmaxShared, rand.New(rand.NewSource(42)))
		var errSum, magSum float64
		for s := 0; s < 16; s++ {
			q, k, v := ts.Q.Sample(s), ts.K.Sample(s), ts.V.Sample(s)
			scores := mat.MulTransB(q.Clone(), k).Scale(scale)
			scores.RowSoftmax()
			exact := mat.Mul(scores, v)
			approx := ak.Query(q, k, v)
			for i, e := range exact.Data {
				errSum += math.Abs(approx.Data[i] - e)
				magSum += math.Abs(e)
			}
		}
		return errSum / (magSum + 1e-12)
	}
	coarse := relForK(4)
	fine := relForK(64)
	if fine > 0.5 {
		t.Fatalf("attention kernel relative error %v > 50%% at K=64", fine)
	}
	// Paper Fig. 8: more prototypes means better approximation.
	if fine > coarse {
		t.Fatalf("error did not shrink with K: K=4 %v, K=64 %v", coarse, fine)
	}
}

func TestAttentionKernelSharedSoftmaxRowsBounded(t *testing.T) {
	// In shared-softmax mode each output element is a convex combination of
	// quantized V-column values, so outputs stay within a modest expansion of
	// V's range.
	rng := rand.New(rand.NewSource(6))
	ts := AttentionTrainingSet{
		Q: clusteredTensor(rng, 32, 4, 4, 3),
		K: clusteredTensor(rng, 32, 4, 4, 3),
		V: clusteredTensor(rng, 32, 4, 4, 3),
	}
	ak := NewAttentionKernel(ts, KernelConfig{K: 8, C: 2}, SoftmaxShared, rng)
	v := ts.V.Sample(0)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, val := range ts.V.Data {
		if val < lo {
			lo = val
		}
		if val > hi {
			hi = val
		}
	}
	out := ak.Query(ts.Q.Sample(0), ts.K.Sample(0), v)
	margin := (hi - lo) * 0.5
	for _, val := range out.Data {
		if val < lo-margin || val > hi+margin {
			t.Fatalf("output %v far outside V range [%v, %v]", val, lo, hi)
		}
	}
}

func TestAttentionKernelModesDiffer(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ts := AttentionTrainingSet{
		Q: clusteredTensor(rng, 32, 4, 4, 3),
		K: clusteredTensor(rng, 32, 4, 4, 3),
		V: clusteredTensor(rng, 32, 4, 4, 3),
	}
	shared := NewAttentionKernel(ts, KernelConfig{K: 8, C: 2}, SoftmaxShared, rand.New(rand.NewSource(1)))
	strict := NewAttentionKernel(ts, KernelConfig{K: 8, C: 2}, SoftmaxPerSubspace, rand.New(rand.NewSource(1)))
	a := shared.Query(ts.Q.Sample(0), ts.K.Sample(0), ts.V.Sample(0))
	b := strict.Query(ts.Q.Sample(0), ts.K.Sample(0), ts.V.Sample(0))
	if equalApprox(a, b, 1e-12) {
		t.Fatal("softmax modes produced identical outputs; folding is not happening")
	}
}

func TestSigmoidLUTAccuracy(t *testing.T) {
	lut := NewSigmoidLUT()
	for x := -10.0; x <= 10.0; x += 0.01 {
		want := 1 / (1 + math.Exp(-x))
		if got := lut.Lookup(x); math.Abs(got-want) > 0.01 {
			t.Fatalf("sigmoid LUT error at %v: %v vs %v", x, got, want)
		}
	}
	// Clamping.
	if lut.Lookup(100) != lut.Entries[len(lut.Entries)-1] {
		t.Fatal("positive clamp broken")
	}
	if lut.Lookup(-100) != lut.Entries[0] {
		t.Fatal("negative clamp broken")
	}
}

func TestLayerNormTabMatchesNN(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ln := nn.NewLayerNorm("ln", 6)
	ln.Gamma.W.Randn(rng, 1)
	ln.Beta.W.Randn(rng, 1)
	tab := NewLayerNormTab(ln)
	x := clusteredTensor(rng, 4, 3, 6, 2)
	want := ln.Forward(x.Clone())
	for s := 0; s < 4; s++ {
		got := tab.Query(x.Sample(s))
		if !equalApprox(got, want.Sample(s), 1e-9) {
			t.Fatalf("layernorm tab mismatch on sample %d", s)
		}
	}
}

func TestMeanPoolTabMatchesNN(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := clusteredTensor(rng, 3, 4, 5, 2)
	want := nn.NewMeanPool().Forward(x.Clone())
	for s := 0; s < 3; s++ {
		got := MeanPoolTab{}.Query(x.Sample(s))
		if !equalApprox(got, want.Sample(s), 1e-12) {
			t.Fatalf("meanpool tab mismatch on sample %d", s)
		}
	}
}

func TestResidualTabIdentityInner(t *testing.T) {
	x := mat.FromSlice(2, 2, []float64{1, 2, 3, 4})
	r := &ResidualTab{Inner: []Layer{ReLUTab{}}}
	got := r.Query(x)
	want := mat.FromSlice(2, 2, []float64{2, 4, 6, 8})
	if !equalApprox(got, want, 0) {
		t.Fatalf("residual = %v", got.Data)
	}
}

func TestHierarchyCostAggregates(t *testing.T) {
	h := &Hierarchy{Layers: []Layer{ReLUTab{}, MeanPoolTab{}}}
	c := h.Cost()
	if c.LatencyCycles != 3 {
		t.Fatalf("hierarchy latency = %d", c.LatencyCycles)
	}
}

// TestParseEncoderKindRoundTrip pins the operator-facing kernel names: every
// parseable name round-trips through String, and unknown names are a clean
// error naming the valid choices.
func TestParseEncoderKindRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want EncoderKind
	}{
		{"lsh", EncoderLSH},
		{"linear", EncoderKMeans},
		{"kmeans", EncoderKMeans}, // historical alias for the linear encoder
	}
	for _, c := range cases {
		got, err := ParseEncoderKind(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParseEncoderKind(%q) = %v, %v", c.in, got, err)
		}
	}
	// String is the canonical spelling and must itself parse.
	for _, k := range []EncoderKind{EncoderLSH, EncoderKMeans} {
		back, err := ParseEncoderKind(k.String())
		if err != nil || back != k {
			t.Fatalf("%v.String() = %q does not round-trip: %v, %v", k, k.String(), back, err)
		}
	}
	if _, err := ParseEncoderKind("quantum"); err == nil ||
		!strings.Contains(err.Error(), "unknown encoder kind") {
		t.Fatalf("unknown kind error: %v", err)
	}
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
