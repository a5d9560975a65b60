package mat

import (
	"math/rand"
	"strings"
	"testing"
)

// TestAuxiliaryOps pins the small utility methods the training loops rely
// on: in-place scaling, uniform init, copies, and the debug renderers.
func TestAuxiliaryOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))

	m := New(2, 3)
	m.RandUniform(rng, 0.5)
	for _, v := range m.Data {
		if v < -0.5 || v > 0.5 {
			t.Fatalf("RandUniform(0.5) produced %v outside [-0.5, 0.5]", v)
		}
	}

	m.Data[0] = 2
	m.Scale(3)
	if m.At(0, 0) != 6 {
		t.Fatalf("Scale(3) gave %v at (0,0), want 6", m.At(0, 0))
	}

	c := New(2, 3)
	c.CopyFrom(m)
	if !equalApprox(c, m, 0) {
		t.Fatal("CopyFrom did not produce an equal matrix")
	}

	if s := m.String(); !strings.Contains(s, "2x3") {
		t.Fatalf("Matrix String() = %q", s)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("CopyFrom with mismatched shapes did not panic")
		}
	}()
	New(1, 2).CopyFrom(m)
}

func TestTensorAuxiliaryOps(t *testing.T) {
	a := NewTensor(2, 3, 4)
	for i := range a.Data {
		a.Data[i] = float64(i)
	}
	a.Zero()
	for _, v := range a.Data {
		if v != 0 {
			t.Fatal("Zero left a non-zero element")
		}
	}
	if !a.ShapeEquals(NewTensor(2, 3, 4)) || a.ShapeEquals(NewTensor(2, 3, 5)) {
		t.Fatal("ShapeEquals verdicts are wrong")
	}
	if s := a.String(); !strings.Contains(s, "2,3,4") {
		t.Fatalf("Tensor String() = %q", s)
	}
}
