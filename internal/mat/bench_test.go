package mat

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"dart/internal/par"
)

func benchPair(n int) (*Matrix, *Matrix) {
	rng := rand.New(rand.NewSource(1))
	return New(n, n).Randn(rng, 1), New(n, n).Randn(rng, 1)
}

func BenchmarkMul64(b *testing.B) {
	x, y := benchPair(64)
	dst := New(64, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MulInto(dst, x, y)
	}
}

func BenchmarkMul256(b *testing.B) {
	x, y := benchPair(256)
	dst := New(256, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MulInto(dst, x, y)
	}
}

func BenchmarkMulTransB128(b *testing.B) {
	x, y := benchPair(128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MulTransB(x, y)
	}
}

// BenchmarkMatMul is the engine-vs-baseline grid: the seed's serial kernel
// against parMulInto at sizes 64..1024 and worker counts 1/2/4/GOMAXPROCS.
// make bench-ci requires par w4 >= 2x serial at the largest size measured
// for both.
func BenchmarkMatMul(b *testing.B) {
	sizes := []int{64, 128, 256, 512, 1024}
	workers := []int{1, 2, 4}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 2 && g != 4 {
		workers = append(workers, g)
	}
	for _, n := range sizes {
		x, y := benchPair(n)
		dst := New(n, n)
		b.Run(fmt.Sprintf("serial/n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst.Zero()
				mulRange(dst, x, y, 0, n)
			}
		})
		for _, w := range workers {
			b.Run(fmt.Sprintf("par/n%d/w%d", n, w), func(b *testing.B) {
				par.SetMaxWorkers(w)
				defer par.SetMaxWorkers(0)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					parMulInto(dst, x, y)
				}
			})
		}
	}
}

// BenchmarkMulTransB512 measures the transpose-free engine path.
func BenchmarkMulTransB512(b *testing.B) {
	x, y := benchPair(512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MulTransB(x, y)
	}
}

func BenchmarkRowSoftmax(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	m := New(64, 64).Randn(rng, 1)
	for i := 0; i < b.N; i++ {
		m.RowSoftmax()
	}
}
