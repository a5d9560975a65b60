package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShape(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("New(3,4) = %v with %d elems", m, len(m.Data))
	}
}

func TestAtSet(t *testing.T) {
	m := New(2, 3)
	m.Data[5] = 7.5
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	if got := m.Data[5]; got != 7.5 {
		t.Fatalf("row-major layout broken: Data[5] = %v", got)
	}
}

func TestFromSlicePanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestMulSmall(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := Mul(a, b)
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if !equalApprox(c, want, 1e-12) {
		t.Fatalf("Mul = %v, want %v", c.Data, want.Data)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(5, 5).Randn(rng, 1)
	id := New(5, 5)
	for i := 0; i < 5; i++ {
		id.Data[i*5+i] = 1
	}
	if got := Mul(a, id); !equalApprox(got, a, 1e-12) {
		t.Fatal("A*I != A")
	}
	if got := Mul(id, a); !equalApprox(got, a, 1e-12) {
		t.Fatal("I*A != A")
	}
}

func TestMulParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Big enough to cross parallelThreshold.
	a := New(64, 64).Randn(rng, 1)
	b := New(64, 64).Randn(rng, 1)
	got := Mul(a, b)
	want := New(64, 64)
	mulRange(want, a, b, 0, 64)
	if !equalApprox(got, want, 1e-9) {
		t.Fatal("parallel Mul diverges from serial")
	}
}

func TestMulTransB(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := New(4, 6).Randn(rng, 1)
	b := New(5, 6).Randn(rng, 1)
	got := MulTransB(a, b)
	want := Mul(a, transpose(b))
	if !equalApprox(got, want, 1e-10) {
		t.Fatal("MulTransB != A*Bᵀ")
	}
}

func TestMulTransA(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := New(6, 4).Randn(rng, 1)
	b := New(6, 5).Randn(rng, 1)
	got := MulTransA(a, b)
	want := Mul(transpose(a), b)
	if !equalApprox(got, want, 1e-10) {
		t.Fatal("MulTransA != Aᵀ*B")
	}
}

func TestAddSub(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, 2, 3})
	b := FromSlice(1, 3, []float64{4, 5, 6})
	if got := Add(a, b); !equalApprox(got, FromSlice(1, 3, []float64{5, 7, 9}), 0) {
		t.Fatalf("Add = %v", got.Data)
	}
	if got := Sub(b, a); !equalApprox(got, FromSlice(1, 3, []float64{3, 3, 3}), 0) {
		t.Fatalf("Sub = %v", got.Data)
	}
}

func TestAddRowVector(t *testing.T) {
	m := New(2, 3)
	m.AddRowVector([]float64{1, 2, 3})
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != float64(j+1) {
				t.Fatalf("(%d,%d) = %v", i, j, m.At(i, j))
			}
		}
	}
}

func TestRowSoftmax(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 1000, 1000, 1000})
	m.RowSoftmax()
	for i := 0; i < 2; i++ {
		var s float64
		for _, v := range m.Row(i) {
			if v < 0 || v > 1 {
				t.Fatalf("softmax out of range: %v", v)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
	// Monotonicity within row 0.
	if !(m.At(0, 0) < m.At(0, 1) && m.At(0, 1) < m.At(0, 2)) {
		t.Fatal("softmax not monotone")
	}
	// Row 1 is uniform despite huge magnitudes (overflow-safe).
	if math.Abs(m.At(1, 0)-1.0/3) > 1e-12 {
		t.Fatalf("softmax overflow handling broken: %v", m.At(1, 0))
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	f := func(a, b, c, shift float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) || math.IsNaN(shift) {
			return true
		}
		a, b, c = math.Mod(a, 50), math.Mod(b, 50), math.Mod(c, 50)
		shift = math.Mod(shift, 50)
		m1 := FromSlice(1, 3, []float64{a, b, c}).RowSoftmax()
		m2 := FromSlice(1, 3, []float64{a + shift, b + shift, c + shift}).RowSoftmax()
		return equalApprox(m1, m2, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCosineSimilarity(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, 0, 0})
	if got := CosineSimilarity(a, a); math.Abs(got-1) > 1e-12 {
		t.Fatalf("self-similarity = %v", got)
	}
	b := FromSlice(1, 3, []float64{0, 1, 0})
	if got := CosineSimilarity(a, b); math.Abs(got) > 1e-12 {
		t.Fatalf("orthogonal similarity = %v", got)
	}
	neg := FromSlice(1, 3, []float64{-1, 0, 0})
	if got := CosineSimilarity(a, neg); math.Abs(got+1) > 1e-12 {
		t.Fatalf("opposite similarity = %v", got)
	}
	zero := New(1, 3)
	if got := CosineSimilarity(a, zero); got != 0 {
		t.Fatalf("zero-vector similarity = %v", got)
	}
}

func TestSliceCols(t *testing.T) {
	m := FromSlice(2, 4, []float64{0, 1, 2, 3, 4, 5, 6, 7})
	s := m.SliceCols(1, 3)
	want := FromSlice(2, 2, []float64{1, 2, 5, 6})
	if !equalApprox(s, want, 0) {
		t.Fatalf("SliceCols = %v", s.Data)
	}
}

func TestNormAndSum(t *testing.T) {
	m := FromSlice(1, 2, []float64{3, 4})
	if got := sum(m); got != 7 {
		t.Fatalf("Sum = %v", got)
	}
}

func TestMulDistributive(t *testing.T) {
	// A*(B+C) == A*B + A*C (property test on small random matrices).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		a := New(n, n).Randn(rng, 1)
		b := New(n, n).Randn(rng, 1)
		c := New(n, n).Randn(rng, 1)
		left := Mul(a, Add(b, c))
		right := Add(Mul(a, b), Mul(a, c))
		return equalApprox(left, right, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
