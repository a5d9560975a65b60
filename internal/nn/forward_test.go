package nn

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"dart/internal/mat"
)

// TestForwardConcurrent runs Forward on one shared transformer predictor and
// one shared LSTM predictor from 8 goroutines at once, each on its own
// batch. Forward stores nothing in the layers, so every output must equal
// the serial one bit for bit, and the race detector must stay quiet.
func TestForwardConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	models := []Layer{
		NewTransformerPredictor(TransformerConfig{T: 4, DIn: 6, DModel: 8, DFF: 16, DOut: 6, Heads: 2, Layers: 2}, rng),
		NewLSTMPredictor(6, 8, 6, rng),
	}
	const workers = 8
	for _, m := range models {
		batches := make([]*mat.Tensor, workers)
		want := make([]*mat.Tensor, workers)
		for i := range batches {
			batches[i] = randTensor(rng, 3+i, 4, 6)
			want[i] = m.Forward(batches[i])
		}
		got := make([]*mat.Tensor, workers)
		var wg sync.WaitGroup
		for i := range batches {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for rep := 0; rep < 20; rep++ {
					got[i] = m.Forward(batches[i])
				}
			}(i)
		}
		wg.Wait()
		for i := range got {
			for j, v := range got[i].Data {
				if math.Float64bits(v) != math.Float64bits(want[i].Data[j]) {
					t.Fatalf("%s batch %d output[%d] = %v concurrently, %v serially", m.Name(), i, j, v, want[i].Data[j])
				}
			}
		}
	}
}

// TestForwardRetainsNothing runs one 2,000-sample Forward through the
// pipeline's default teacher shape and checks that the post-GC live heap
// barely moves: no layer keeps its activations once Forward returns.
func TestForwardRetainsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	cfg := TransformerConfig{T: 8, DIn: 10, DModel: 64, DFF: 128, DOut: 64, Heads: 4, Layers: 2}
	m := NewTransformerPredictor(cfg, rng)
	x := randTensor(rng, 2000, cfg.T, cfg.DIn)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m.Forward(x)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	runtime.KeepAlive(x)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 2<<20 {
		t.Fatalf("live heap grew %.1f MiB across one Forward", float64(grew)/(1<<20))
	}
}
