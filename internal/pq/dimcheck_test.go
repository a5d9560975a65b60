package pq

import (
	"math/rand"
	"strings"
	"testing"

	"dart/internal/mat"
)

// fittedKMeans returns a small fitted k-means encoder (D=8, C=2, K=4).
func fittedKMeans(t *testing.T) *KMeansEncoder {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	enc := NewKMeansEncoder(8, 2, 4, rng)
	x := mat.New(32, 8).Randn(rng, 1)
	enc.Fit(x)
	return enc
}

// mustPanic asserts fn panics with a message containing want.
func mustPanic(t *testing.T, name, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s: no panic", name)
			return
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("%s: panic value %v is not a string", name, r)
		}
		if !strings.Contains(msg, want) {
			t.Fatalf("%s: panic %q does not mention %q", name, msg, want)
		}
	}()
	fn()
}

func TestDimensionChecks(t *testing.T) {
	enc := fittedKMeans(t)
	wide := mat.New(3, 9)
	narrow := mat.New(3, 4)

	cases := []struct {
		name string
		want string
		fn   func()
	}{
		{"EncodeBatch/wide", "expects 8", func() { EncodeBatch(enc, wide) }},
		{"EncodeBatch/narrow", "expects 8", func() { EncodeBatch(enc, narrow) }},
		{"EncodeRow/rowLen", "expects (8, 2)", func() { enc.EncodeRow(make([]float64, 7), make([]int, 2)) }},
		{"EncodeRow/outLen", "expects (8, 2)", func() { enc.EncodeRow(make([]float64, 8), make([]int, 3)) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { mustPanic(t, c.name, c.want, c.fn) })
	}
}

func TestLSHEncodeRowDimensionCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	enc := NewLSHEncoder(8, 2, 4, rng)
	enc.Fit(mat.New(16, 8).Randn(rng, 1))
	mustPanic(t, "LSH/EncodeRow", "expects (8, 2)", func() {
		enc.EncodeRow(make([]float64, 10), make([]int, 2))
	})
	// Correct shapes still work.
	out := make([]int, 2)
	enc.EncodeRow(make([]float64, 8), out)
}

// TestValidShapesUnaffected guards the checks against false positives.
func TestValidShapesUnaffected(t *testing.T) {
	enc := fittedKMeans(t)
	rng := rand.New(rand.NewSource(3))
	x := mat.New(5, 8).Randn(rng, 1)
	if rows := EncodeBatch(enc, x); len(rows) != 5 || len(rows[0]) != 2 {
		t.Fatalf("EncodeBatch shape %dx%d", len(rows), len(rows[0]))
	}
}
