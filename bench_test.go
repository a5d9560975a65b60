package dart

// Wall-clock microbenchmarks backing Table V's acceleration story with real
// measurements on this host: single-sample inference latency of the teacher,
// the distilled student, and the DART table hierarchy.

import (
	"math/rand"
	"testing"

	"dart/internal/mat"
	"dart/internal/tabular"
)

// BenchmarkInference_Teacher measures one teacher forward pass.
func BenchmarkInference_Teacher(b *testing.B) {
	l := getLab(b, "462.libquantum")
	x := l.art.Test.X
	one := mat.TensorFromSlice(1, x.T, x.D, append([]float64(nil), x.Sample(0).Data...))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.art.Teacher.Forward(one)
	}
}

// BenchmarkInference_Student measures one distilled-student forward pass.
func BenchmarkInference_Student(b *testing.B) {
	l := getLab(b, "462.libquantum")
	x := l.art.Test.X
	one := mat.TensorFromSlice(1, x.T, x.D, append([]float64(nil), x.Sample(0).Data...))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.art.Student.Forward(one)
	}
}

// BenchmarkInference_DARTTables measures one table-hierarchy query.
func BenchmarkInference_DARTTables(b *testing.B) {
	l := getLab(b, "462.libquantum")
	x := l.art.Test.X.Sample(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.art.Tables.Hierarchy.Query(x)
	}
}

// BenchmarkInference_DARTTablesLSH measures a table-hierarchy query using the
// O(log K) LSH encoder — the software fast path corresponding to the paper's
// latency model (the default k-means encoder scans all K prototypes and is
// only fast on parallel hardware).
func BenchmarkInference_DARTTablesLSH(b *testing.B) {
	l := getLab(b, "462.libquantum")
	fit := l.art.Train.X
	if fit.N > 256 {
		fit = fit.Gather(rand.New(rand.NewSource(1)).Perm(fit.N)[:256])
	}
	res := tabular.Tabularize(l.art.Student, fit, tabular.Config{
		Kernel: tabular.KernelConfig{
			K: l.art.Chosen.Table.K, C: l.art.Chosen.Table.C,
			Kind: tabular.EncoderLSH, DataBits: 64,
		},
		Seed: 1,
	})
	x := l.art.Test.X.Sample(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res.Hierarchy.Query(x)
	}
}

// BenchmarkInference_Voyager measures one LSTM-baseline forward pass.
func BenchmarkInference_Voyager(b *testing.B) {
	l := getLab(b, "462.libquantum")
	x := l.art.Test.X
	one := mat.TensorFromSlice(1, x.T, x.D, append([]float64(nil), x.Sample(0).Data...))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.voyager.Forward(one)
	}
}
