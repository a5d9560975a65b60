package tabular

import (
	"testing"

	"dart/internal/par"
)

func TestQueryBatchMatchesQuery(t *testing.T) {
	m, x, _ := smallModelAndData(21)
	res := Tabularize(m, x, Config{Kernel: KernelConfig{K: 16, C: 2}, Seed: 21})
	h := res.Hierarchy

	batch := h.QueryBatch(x)
	for n := 0; n < x.N; n++ {
		want := h.Query(x.Sample(n))
		got := batch.Sample(n)
		if got.Rows != want.Rows || got.Cols != want.Cols {
			t.Fatalf("sample %d: shape %dx%d != %dx%d", n, got.Rows, got.Cols, want.Rows, want.Cols)
		}
		for i, v := range want.Data {
			if got.Data[i] != v {
				t.Fatalf("sample %d element %d: batch %v != serial %v (must be bit-identical)",
					n, i, got.Data[i], v)
			}
		}
	}
}

func TestQueryBatchWorkerCountInvariance(t *testing.T) {
	m, x, _ := smallModelAndData(22)
	res := Tabularize(m, x, Config{Kernel: KernelConfig{K: 16, C: 2}, Seed: 22})
	h := res.Hierarchy

	par.SetMaxWorkers(1)
	ref := h.QueryBatch(x)
	for _, w := range []int{2, 4, 8} {
		par.SetMaxWorkers(w)
		got := h.QueryBatch(x)
		if !got.ShapeEquals(ref) {
			t.Fatalf("w=%d: shape changed", w)
		}
		for i, v := range ref.Data {
			if got.Data[i] != v {
				t.Fatalf("w=%d element %d: %v != %v", w, i, got.Data[i], v)
			}
		}
	}
	par.SetMaxWorkers(0)
}

// TestForwardIsQueryBatch: two QueryBatch calls on one hierarchy agree bit
// for bit — a query writes no kernel state, which is what lets a published
// table serve from any goroutine.
func TestForwardIsQueryBatch(t *testing.T) {
	m, x, _ := smallModelAndData(23)
	res := Tabularize(m, x, Config{Kernel: KernelConfig{K: 16, C: 2}, Seed: 23})
	h := res.Hierarchy

	f := h.QueryBatch(x)
	q := h.QueryBatch(x)
	for i, v := range q.Data {
		if f.Data[i] != v {
			t.Fatalf("QueryBatch is not repeatable at %d", i)
		}
	}
}

// BenchmarkHierarchyQueryBatch measures batched table inference throughput
// over a small tabularized model.
func BenchmarkHierarchyQueryBatch(b *testing.B) {
	m, x, _ := smallModelAndData(24)
	res := Tabularize(m, x, Config{Kernel: KernelConfig{K: 16, C: 2}, Seed: 24})
	h := res.Hierarchy
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.QueryBatch(x)
	}
}
