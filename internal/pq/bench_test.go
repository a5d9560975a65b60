package pq

import (
	"math/rand"
	"testing"

	"dart/internal/mat"
)

func benchEncoder(b *testing.B, enc Encoder) {
	rng := rand.New(rand.NewSource(1))
	x := mat.New(512, 32).Randn(rng, 1)
	enc.Fit(x)
	idx := make([]int, enc.C())
	row := x.Row(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.EncodeRow(row, idx)
	}
}

// BenchmarkEncodeKMeans measures exact nearest-prototype encoding (scans all
// K prototypes per subspace).
func BenchmarkEncodeKMeans(b *testing.B) {
	benchEncoder(b, NewKMeansEncoder(32, 4, 128, rand.New(rand.NewSource(2))))
}

// BenchmarkEncodeLSH measures sign-bit hashing (log K hyperplanes per
// subspace) — the encoder the paper's latency model assumes.
func BenchmarkEncodeLSH(b *testing.B) {
	benchEncoder(b, NewLSHEncoder(32, 4, 128, rand.New(rand.NewSource(2))))
}

func BenchmarkKMeansFit(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := mat.New(512, 8).Randn(rng, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KMeans(x.Data, 512, 8, 16, 10, rng)
	}
}
