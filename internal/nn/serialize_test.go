package nn

import (
	"bytes"
	"math/rand"
	"testing"

	"dart/internal/mat"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := TransformerConfig{T: 3, DIn: 4, DModel: 8, DFF: 16, DOut: 5, Heads: 2, Layers: 1}
	m := NewTransformerPredictor(cfg, rng)
	x := randTensor(rng, 2, 3, 4)
	want := m.Forward(x.Clone())

	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, m, CheckpointMeta{}); err != nil {
		t.Fatal(err)
	}
	m2 := NewTransformerPredictor(cfg, rand.New(rand.NewSource(99)))
	if _, err := LoadCheckpoint(&buf, m2); err != nil {
		t.Fatal(err)
	}
	got := m2.Forward(x.Clone())
	if !mat.EqualApprox(got.AsMatrix(), want.AsMatrix(), 1e-12) {
		t.Fatal("loaded model diverges from saved model")
	}
}

func TestLoadCheckpointArchitectureMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewLinear("a", 3, 2, rng)
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, a, CheckpointMeta{}); err != nil {
		t.Fatal(err)
	}
	// Wrong name.
	other := NewLinear("b", 3, 2, rng)
	if _, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Fatal("expected name mismatch error")
	}
	// Wrong shape.
	buf.Reset()
	if err := SaveCheckpoint(&buf, a, CheckpointMeta{}); err != nil {
		t.Fatal(err)
	}
	shaped := NewLinear("a", 4, 2, rng)
	if _, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), shaped); err == nil {
		t.Fatal("expected shape mismatch error")
	}
	// Wrong parameter count.
	buf.Reset()
	if err := SaveCheckpoint(&buf, a, CheckpointMeta{}); err != nil {
		t.Fatal(err)
	}
	seq := NewSequential("s", NewLinear("a", 3, 2, rng), NewLinear("c", 2, 2, rng))
	if _, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), seq); err == nil {
		t.Fatal("expected count mismatch error")
	}
}

func TestLoadCheckpointGarbageInput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewLinear("a", 2, 2, rng)
	if _, err := LoadCheckpoint(bytes.NewReader([]byte("not gob")), m); err == nil {
		t.Fatal("garbage input loaded")
	}
}
