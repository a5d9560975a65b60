package tabular

import (
	"math/rand"
	"testing"

	"dart/internal/mat"
	"dart/internal/nn"
)

// smallModelAndData trains a tiny transformer on clustered inputs so the
// tabularization tests operate on a realistic (non-random-weight) model.
func smallModelAndData(seed int64) (*nn.Sequential, *mat.Tensor, *mat.Tensor) {
	rng := rand.New(rand.NewSource(seed))
	cfg := nn.TransformerConfig{T: 4, DIn: 4, DModel: 8, DFF: 16, DOut: 4, Heads: 2, Layers: 1}
	m := nn.NewTransformerPredictor(cfg, rng)
	x := clusteredTensor(rng, 96, cfg.T, cfg.DIn, 5)
	y := mat.NewTensor(96, 1, cfg.DOut)
	for s := 0; s < 96; s++ {
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
	tr := nn.NewTrainer(m, nn.NewAdam(0.01), 32, rng)
	for e := 0; e < 15; e++ {
		tr.TrainEpoch(x, y, nn.BCEWithLogits)
	}
	return m, x, y
}

func TestTabularizeProducesWorkingHierarchy(t *testing.T) {
	m, x, _ := smallModelAndData(1)
	res := Tabularize(m, x, Config{
		Kernel:   KernelConfig{K: 32, C: 2},
		FineTune: true,
		Seed:     7,
	})
	if len(res.Hierarchy.Layers) == 0 {
		t.Fatal("empty hierarchy")
	}
	// Model structure: input linear, positional embedding, residual(attn),
	// residual(ffn), pool, output.
	if got := len(res.Hierarchy.Layers); got != 6 {
		t.Fatalf("hierarchy has %d top-level layers, want 6", got)
	}
	out := res.Hierarchy.Query(x.Sample(0))
	if out.Rows != 1 || out.Cols != 4 {
		t.Fatalf("hierarchy output shape %v", out)
	}
	// Cosine diagnostics are recorded per layer and stay in [-1, 1].
	if len(res.Cosine) != len(res.Hierarchy.Layers) {
		t.Fatalf("cosine entries %d != layers %d", len(res.Cosine), len(res.Hierarchy.Layers))
	}
	for i, c := range res.Cosine {
		if c < -1-1e-9 || c > 1+1e-9 {
			t.Fatalf("cosine[%d] = %v out of range", i, c)
		}
	}
}

func TestTabularizedOutputCorrelatesWithModel(t *testing.T) {
	m, x, _ := smallModelAndData(2)
	res := Tabularize(m, x, Config{
		Kernel:   KernelConfig{K: 64, C: 2},
		FineTune: true,
		Seed:     7,
	})
	exact := m.Forward(x.Clone())
	approx := res.Hierarchy.QueryBatch(x)
	cos := mat.CosineSimilarity(exact.AsMatrix(), approx.AsMatrix())
	if cos < 0.7 {
		t.Fatalf("tabularized output cosine %v < 0.7", cos)
	}
}

func TestFineTuningDoesNotDegradeOutput(t *testing.T) {
	// Paper Fig. 11 / Table VII: fine-tuning raises per-layer similarity.
	// Quantization noise can move individual runs either way, so we assert
	// the fine-tuned variant is at least as good up to a small slack.
	m, x, _ := smallModelAndData(3)
	noFT := Tabularize(m, x, Config{Kernel: KernelConfig{K: 32, C: 2}, FineTune: false, Seed: 7})
	withFT := Tabularize(m, x, Config{Kernel: KernelConfig{K: 32, C: 2}, FineTune: true, Seed: 7})
	a := noFT.Cosine[len(noFT.Cosine)-1]
	b := withFT.Cosine[len(withFT.Cosine)-1]
	if b < a-0.05 {
		t.Fatalf("fine-tuning degraded final cosine: %v -> %v", a, b)
	}
}

func TestTabularizeLSHEncoder(t *testing.T) {
	m, x, _ := smallModelAndData(4)
	res := Tabularize(m, x, Config{
		Kernel: KernelConfig{K: 32, C: 2, Kind: EncoderLSH},
		Seed:   7,
	})
	out := res.Hierarchy.Query(x.Sample(0))
	if out.Rows != 1 || out.Cols != 4 {
		t.Fatalf("LSH hierarchy output shape %v", out)
	}
}

func TestHierarchyCostPositive(t *testing.T) {
	m, x, _ := smallModelAndData(5)
	res := Tabularize(m, x, Config{Kernel: KernelConfig{K: 16, C: 2}, Seed: 7})
	c := res.Hierarchy.Cost()
	if c.LatencyCycles <= 0 || c.StorageBits <= 0 || c.Ops <= 0 {
		t.Fatalf("degenerate cost %+v", c)
	}
}

func TestHierarchyForwardMatchesQuery(t *testing.T) {
	m, x, _ := smallModelAndData(6)
	res := Tabularize(m, x, Config{Kernel: KernelConfig{K: 16, C: 2}, Seed: 7})
	batch := res.Hierarchy.QueryBatch(x)
	for s := 0; s < 3; s++ {
		single := res.Hierarchy.Query(x.Sample(s))
		if !equalApprox(single, batch.Sample(s), 1e-12) {
			t.Fatalf("batch/single mismatch at sample %d", s)
		}
	}
}

func TestHierarchyParallelForwardMatchesSequential(t *testing.T) {
	// With N >= 32 Forward takes the goroutine fan-out path; results must be
	// identical to per-sample queries (all layers are read-only at query time).
	m, x, _ := smallModelAndData(8)
	res := Tabularize(m, x, Config{Kernel: KernelConfig{K: 16, C: 2}, Seed: 7})
	if x.N < 32 {
		t.Fatalf("test needs >= 32 samples, have %d", x.N)
	}
	batch := res.Hierarchy.QueryBatch(x)
	for s := 0; s < x.N; s++ {
		want := res.Hierarchy.Query(x.Sample(s))
		if !equalApprox(want, batch.Sample(s), 1e-12) {
			t.Fatalf("parallel batch diverges at sample %d", s)
		}
	}
}

func TestTabularizeRejectsUnknownLayer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unsupported layer")
		}
	}()
	rng := rand.New(rand.NewSource(1))
	m := nn.NewSequential("bad", nn.NewLSTM("l", 2, 2, rng))
	Tabularize(m, mat.NewTensor(4, 2, 2), Config{})
}
