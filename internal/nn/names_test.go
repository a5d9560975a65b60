package nn

import (
	"math/rand"
	"testing"
)

// TestLayerNames pins every Layer's Name() — checkpoint files and the
// store's param manifests key on these strings, so a rename is a
// compatibility break, not a cosmetic change.
func TestLayerNames(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lin := NewLinear("fc1", 4, 4, rng)
	cases := []struct {
		layer Layer
		want  string
	}{
		{NewReLU(), "relu"},
		{&Sigmoid{}, "sigmoid"},
		{NewMeanPool(), "meanpool"},
		{NewMultiHeadSelfAttention("msa0", 4, 2, rng), "msa"},
		{NewLSTM("l0", 4, 4, rng), "lstm"},
		{lin, "fc1"},
		{NewLayerNorm("ln1", 4), "ln1"},
		{NewPositionalEmbedding("pos", 8, 4, rng), "pos"},
		{NewResidual(NewReLU()), "residual(relu)"},
		{NewSequential("model", NewReLU()), "model"},
	}
	for _, c := range cases {
		if got := c.layer.Name(); got != c.want {
			t.Errorf("%T.Name() = %q, want %q", c.layer, got, c.want)
		}
	}
}
