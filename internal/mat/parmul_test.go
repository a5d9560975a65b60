package mat

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"dart/internal/par"
)

// withWorkers runs fn with par capped at w workers.
func withWorkers(w int, fn func()) {
	par.SetMaxWorkers(w)
	defer par.SetMaxWorkers(0)
	fn()
}

// randomMatrix fills an r x c matrix with Gaussian values; zeroFrac of the
// entries are forced to exactly zero to exercise the serial kernels'
// zero-skip paths.
func randomMatrix(rng *rand.Rand, r, c int, zeroFrac float64) *Matrix {
	m := New(r, c).Randn(rng, 1)
	for i := range m.Data {
		if rng.Float64() < zeroFrac {
			m.Data[i] = 0
		}
	}
	return m
}

// relTol is the allowed relative deviation between the engine (which may use
// FMA contraction) and the plain mul+add reference kernels.
const relTol = 1e-12

// requireClose fails unless got and want agree elementwise within relTol
// scaled by the magnitude of the reduction.
func requireClose(t *testing.T, got, want *Matrix, n int, label string) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d != %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	scale := 1 + maxAbs(want) + math.Sqrt(float64(n))
	for i, w := range want.Data {
		if d := math.Abs(got.Data[i] - w); d > relTol*scale {
			t.Fatalf("%s: element %d differs: got %v want %v (diff %g, tol %g)",
				label, i, got.Data[i], w, d, relTol*scale)
		}
	}
}

// mulShapes covers tile remainders in every dimension: rows % 4, cols % 2,
// k % 4, degenerate sizes, and shapes straddling the MulInto size cutoff.
var mulShapes = [][3]int{
	{1, 1, 1}, {1, 7, 1}, {3, 2, 5}, {4, 4, 4}, {5, 3, 2},
	{7, 9, 11}, {8, 16, 2}, {13, 1, 17}, {16, 64, 33}, {31, 33, 29},
	{64, 64, 64}, {65, 63, 67}, {100, 40, 81}, {128, 32, 128},
}

func TestParMulIntoMatchesSerialReference(t *testing.T) {
	for _, zf := range []float64{0, 0.5} {
		for si, shape := range mulShapes {
			m, n, p := shape[0], shape[1], shape[2]
			rng := rand.New(rand.NewSource(int64(100*si) + int64(zf*10)))
			a := randomMatrix(rng, m, n, zf)
			b := randomMatrix(rng, n, p, zf)
			want := New(m, p)
			mulRange(want, a, b, 0, m)
			got := New(m, p)
			parMulInto(got, a, b)
			requireClose(t, got, want, n, fmt.Sprintf("parMulInto %dx%dx%d zf=%v", m, n, p, zf))
		}
	}
}

func TestParMulIntoBitIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, shape := range [][3]int{{37, 41, 53}, {128, 96, 64}, {64, 100, 7}} {
		m, n, p := shape[0], shape[1], shape[2]
		rng := rand.New(rand.NewSource(7))
		a := randomMatrix(rng, m, n, 0.2)
		b := randomMatrix(rng, n, p, 0.2)
		var serial *Matrix
		withWorkers(1, func() {
			serial = New(m, p)
			parMulInto(serial, a, b)
		})
		for _, w := range []int{2, 3, 4, 8} {
			withWorkers(w, func() {
				got := New(m, p)
				parMulInto(got, a, b)
				for i := range got.Data {
					if got.Data[i] != serial.Data[i] {
						t.Fatalf("shape %v: w=%d element %d = %v, serial = %v (must be bit-identical)",
							shape, w, i, got.Data[i], serial.Data[i])
					}
				}
			})
		}
	}
}

func TestMulIntoLargePathIsEngine(t *testing.T) {
	// Above the cutoff MulInto must take the exact same code path as
	// parMulInto, bit for bit.
	rng := rand.New(rand.NewSource(11))
	a := randomMatrix(rng, 80, 80, 0)
	b := randomMatrix(rng, 80, 80, 0)
	viaMul := New(80, 80)
	MulInto(viaMul, a, b)
	viaPar := New(80, 80)
	parMulInto(viaPar, a, b)
	for i := range viaMul.Data {
		if viaMul.Data[i] != viaPar.Data[i] {
			t.Fatalf("element %d: MulInto %v != parMulInto %v", i, viaMul.Data[i], viaPar.Data[i])
		}
	}
}

func TestMulTransBMatchesSerialReference(t *testing.T) {
	for si, shape := range mulShapes {
		m, n, p := shape[0], shape[1], shape[2]
		rng := rand.New(rand.NewSource(int64(200 + si)))
		a := randomMatrix(rng, m, n, 0.1)
		b := randomMatrix(rng, p, n, 0.1) // b has n cols: a * bᵀ is m x p
		want := New(m, p)
		mulTransBRange(want, a, b, 0, m)
		got := MulTransB(a, b)
		requireClose(t, got, want, n, fmt.Sprintf("MulTransB %dx%dx%d", m, n, p))
	}
}

func TestMulTransBBitIdenticalAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randomMatrix(rng, 70, 90, 0.1)
	b := randomMatrix(rng, 50, 90, 0.1)
	var serial *Matrix
	withWorkers(1, func() { serial = MulTransB(a, b) })
	for _, w := range []int{2, 4, 8} {
		withWorkers(w, func() {
			got := MulTransB(a, b)
			for i := range got.Data {
				if got.Data[i] != serial.Data[i] {
					t.Fatalf("w=%d element %d = %v, serial = %v", w, i, got.Data[i], serial.Data[i])
				}
			}
		})
	}
}

func TestMulTransAMatchesSerialReference(t *testing.T) {
	for si, shape := range mulShapes {
		m, n, p := shape[0], shape[1], shape[2]
		rng := rand.New(rand.NewSource(int64(300 + si)))
		a := randomMatrix(rng, n, m, 0.1) // aᵀ * b is m x p with shared dim n
		b := randomMatrix(rng, n, p, 0.1)
		want := New(m, p)
		mulTransARange(want, a, b)
		got := MulTransA(a, b)
		requireClose(t, got, want, n, fmt.Sprintf("MulTransA %dx%dx%d", m, n, p))
	}
}

func TestMulTransABitIdenticalAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := randomMatrix(rng, 90, 60, 0.1)
	b := randomMatrix(rng, 90, 70, 0.1)
	var serial *Matrix
	withWorkers(1, func() { serial = MulTransA(a, b) })
	for _, w := range []int{2, 4, 8} {
		withWorkers(w, func() {
			got := MulTransA(a, b)
			for i := range got.Data {
				if got.Data[i] != serial.Data[i] {
					t.Fatalf("w=%d element %d = %v, serial = %v", w, i, got.Data[i], serial.Data[i])
				}
			}
		})
	}
}

func TestParMulIntoDegenerate(t *testing.T) {
	// Zero-sized operands must not panic and must produce empty results.
	parMulInto(New(0, 5), New(0, 3), New(3, 5))
	parMulInto(New(4, 0), New(4, 2), New(2, 0))
	got := New(3, 3)
	parMulInto(got, New(3, 0), New(0, 3))
	for i, v := range got.Data {
		if v != 0 {
			t.Fatalf("k=0 product element %d = %v, want 0", i, v)
		}
	}
}

// TestParMulIntoConcurrentCallers hammers the engine from several goroutines
// sharing read-only operands; meaningful mainly under -race.
func TestParMulIntoConcurrentCallers(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := randomMatrix(rng, 96, 64, 0)
	b := randomMatrix(rng, 64, 48, 0)
	want := New(96, 48)
	parMulInto(want, a, b)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 8; it++ {
				got := New(96, 48)
				parMulInto(got, a, b)
				for i := range got.Data {
					if got.Data[i] != want.Data[i] {
						t.Errorf("concurrent result diverged at %d", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
