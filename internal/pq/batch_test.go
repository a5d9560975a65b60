package pq

import (
	"math/rand"
	"testing"

	"dart/internal/mat"
	"dart/internal/par"
)

func fittedEncoder(t *testing.T, kind string, d, c, k int, rng *rand.Rand) Encoder {
	t.Helper()
	train := mat.New(256, d).Randn(rng, 1)
	var enc Encoder
	switch kind {
	case "kmeans":
		enc = NewKMeansEncoder(d, c, k, rng)
	case "lsh":
		enc = NewLSHEncoder(d, c, k, rng)
	default:
		t.Fatalf("unknown encoder kind %q", kind)
	}
	enc.Fit(train)
	return enc
}

func TestEncodeBatchMatchesEncodeRow(t *testing.T) {
	for _, kind := range []string{"kmeans", "lsh"} {
		rng := rand.New(rand.NewSource(1))
		enc := fittedEncoder(t, kind, 16, 4, 8, rng)
		x := mat.New(103, 16).Randn(rng, 1)
		batch := EncodeBatch(enc, x)
		want := make([]int, enc.C())
		for i := 0; i < x.Rows; i++ {
			enc.EncodeRow(x.Row(i), want)
			for c, w := range want {
				if batch[i][c] != w {
					t.Fatalf("%s: row %d subspace %d: batch %d != serial %d", kind, i, c, batch[i][c], w)
				}
			}
		}
	}
}

func TestEncodeBatchWorkerCountInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	enc := fittedEncoder(t, "kmeans", 12, 3, 6, rng)
	x := mat.New(97, 12).Randn(rng, 1)
	par.SetMaxWorkers(1)
	ref := EncodeBatch(enc, x)
	for _, w := range []int{2, 4, 8} {
		par.SetMaxWorkers(w)
		got := EncodeBatch(enc, x)
		for i := range ref {
			for c := range ref[i] {
				if got[i][c] != ref[i][c] {
					t.Fatalf("w=%d: row %d subspace %d differs", w, i, c)
				}
			}
		}
	}
	par.SetMaxWorkers(0)
}

func TestEncodeBatchEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	enc := fittedEncoder(t, "kmeans", 8, 2, 4, rng)
	if got := EncodeBatch(enc, mat.New(0, 8)); len(got) != 0 {
		t.Fatalf("empty batch returned %d rows", len(got))
	}
}
