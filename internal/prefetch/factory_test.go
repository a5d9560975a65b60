package prefetch

import (
	"testing"

	"dart/internal/dataprep"
	"dart/internal/mat"
	"dart/internal/sim"
)

func TestRegistryBuiltins(t *testing.T) {
	r := NewRegistry()
	want := map[string]string{
		"none":   "none",
		"bo":     "BO",
		"isb":    "ISB",
		"stride": "Stride",
	}
	for name, pfName := range want {
		pf, err := r.New(name, 4)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if pf.Name() != pfName {
			t.Fatalf("New(%q).Name() = %q, want %q", name, pf.Name(), pfName)
		}
	}
}

func TestRegistryUnknownName(t *testing.T) {
	if _, err := NewRegistry().New("voyager-9000", 4); err == nil {
		t.Fatal("no error for unknown prefetcher")
	}
}

// constModel is a fixed-logit BitmapPredictor for factory tests.
type constModel struct{ out []float64 }

func (m constModel) Logits(*mat.Matrix) []float64 { return m.out }

// TestRegistryNNFactoryIsolation: a model-backed factory registered the way
// the serving engine registers its classes hands out instances that share
// the predictor but keep private history state (a fresh NNPrefetcher per New
// call).
func TestRegistryNNFactoryIsolation(t *testing.T) {
	r := NewRegistry()
	cfg := dataprep.Default()
	pred := constModel{out: make([]float64, cfg.OutputDim())}
	r.Register("online", func(degree int) sim.Prefetcher {
		return NewNNPrefetcher("online", pred, cfg, 17, 1<<12, degree)
	})

	a, err := r.New("online", 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.New("online", 4)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("nn factory returned a shared instance")
	}
	if a.Name() != "online" || a.Latency() != 17 || a.StorageBytes() != 1<<12 {
		t.Fatalf("instance misconfigured: %q lat %d sto %d", a.Name(), a.Latency(), a.StorageBytes())
	}
	// Warming a's history must not advance b's.
	acc := sim.Access{PC: 1, Block: 100}
	for i := 0; i < cfg.History; i++ {
		a.OnAccess(acc)
	}
	an, _ := a.(*NNPrefetcher)
	bn, _ := b.(*NNPrefetcher)
	if _, ok := an.BuildInput(acc); !ok {
		t.Fatal("a's history did not fill")
	}
	if _, ok := bn.BuildInput(acc); ok {
		t.Fatal("instances share history state")
	}
}

func TestRegistryInstancesIndependent(t *testing.T) {
	r := NewRegistry()
	a, _ := r.New("stride", 2)
	b, _ := r.New("stride", 2)
	if a == b {
		t.Fatal("factory returned a shared instance")
	}
	// Train a on a stride; b must stay cold.
	for i := 0; i < 10; i++ {
		a.OnAccess(sim.Access{PC: 1, Block: uint64(100 + 4*i)})
	}
	if reqs := b.OnAccess(sim.Access{PC: 1, Block: 500}); len(reqs) != 0 {
		t.Fatalf("instance b inherited state from a: %v", reqs)
	}
}

func TestRegistryRegisterOverride(t *testing.T) {
	r := NewRegistry()
	r.Register("custom", func(degree int) sim.Prefetcher { return NewStride(degree) })
	pf, err := r.New("custom", 1)
	if err != nil || pf.Name() != "Stride" {
		t.Fatalf("custom registration failed: %v %v", pf, err)
	}
	found := false
	for _, n := range r.Names() {
		if n == "custom" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Names() = %v missing custom", r.Names())
	}
}

func TestCloneIsIndependent(t *testing.T) {
	base := NewRegistry()
	clone := base.Clone()
	clone.Register("private", func(degree int) sim.Prefetcher { return NewStride(degree) })
	if _, err := base.New("private", 1); err == nil {
		t.Fatal("clone registration leaked into the source registry")
	}
	if _, err := clone.New("private", 1); err != nil {
		t.Fatalf("clone lost its own registration: %v", err)
	}
	// Clone keeps the built-ins.
	if _, err := clone.New("bo", 2); err != nil {
		t.Fatalf("clone lost built-ins: %v", err)
	}
}

func TestDefaultDegreeApplied(t *testing.T) {
	pf, err := NewRegistry().New("bo", 0)
	if err != nil {
		t.Fatal(err)
	}
	bo := pf.(*BestOffset)
	if bo.degree != 4 {
		t.Fatalf("zero degree resolved to %d, want default 4", bo.degree)
	}
}

// TestTwoPhaseMatchesOnAccess: BuildInput + Logits + Apply (the serving
// engine's batched path) must reproduce OnAccess exactly.
func TestTwoPhaseMatchesOnAccess(t *testing.T) {
	cfg := dataprep.Default()
	mono := NewNNPrefetcher("m", allPositive{cfg.OutputDim()}, cfg, 0, 0, 4)
	split := NewNNPrefetcher("s", allPositive{cfg.OutputDim()}, cfg, 0, 0, 4)
	pred := allPositive{cfg.OutputDim()}

	for i := 0; i < 3*cfg.History; i++ {
		a := sim.Access{PC: uint64(i % 3), Block: uint64(2000 + 7*i)}
		want := mono.OnAccess(a)
		var got []uint64
		if x, ok := split.BuildInput(a); ok {
			got = split.Apply(a, pred.Logits(x))
		}
		if len(want) != len(got) {
			t.Fatalf("access %d: %v != %v", i, got, want)
		}
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("access %d: %v != %v", i, got, want)
			}
		}
	}
}
