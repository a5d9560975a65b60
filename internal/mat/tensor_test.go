package mat

import (
	"math/rand"
	"testing"
)

func TestTensorShape(t *testing.T) {
	x := NewTensor(2, 3, 4)
	if x.N != 2 || x.T != 3 || x.D != 4 || len(x.Data) != 24 {
		t.Fatalf("bad tensor %v", x)
	}
}

func TestSampleSharesStorage(t *testing.T) {
	x := NewTensor(2, 2, 2)
	s := x.Sample(1)
	s.Data[0] = 9
	if x.Data[4] != 9 {
		t.Fatal("Sample does not share storage")
	}
	if s.Rows != 2 || s.Cols != 2 {
		t.Fatalf("Sample shape %v", s)
	}
}

func TestAsMatrixLayout(t *testing.T) {
	x := NewTensor(2, 3, 4)
	for i := range x.Data {
		x.Data[i] = float64(i)
	}
	m := x.AsMatrix()
	if m.Rows != 6 || m.Cols != 4 {
		t.Fatalf("AsMatrix shape %v", m)
	}
	// Row t of sample n is row n*T+t of the matrix.
	if m.At(4, 1) != x.Sample(1).At(1, 1) {
		t.Fatal("AsMatrix layout mismatch")
	}
}

func TestTensorCloneIndependent(t *testing.T) {
	x := NewTensor(1, 2, 2)
	x.Data[0] = 5
	c := x.Clone()
	c.Data[0] = 7
	if x.Data[0] != 5 {
		t.Fatal("Clone shares storage")
	}
}

func TestGather(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := NewTensor(5, 2, 3)
	for i := range x.Data {
		x.Data[i] = rng.Float64()
	}
	g := x.Gather([]int{4, 0})
	if g.N != 2 {
		t.Fatalf("Gather N = %d", g.N)
	}
	if !equalApprox(g.Sample(0), x.Sample(4), 0) || !equalApprox(g.Sample(1), x.Sample(0), 0) {
		t.Fatal("Gather content mismatch")
	}
}

func TestTensorFromSlicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TensorFromSlice(1, 2, 2, []float64{1})
}
