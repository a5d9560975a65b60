package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// withWorkers runs fn under a temporary worker cap, restoring the previous
// cap afterwards.
func withWorkers(t testing.TB, n int, fn func()) {
	t.Helper()
	prev := int(maxWorkers.Load())
	SetMaxWorkers(n)
	defer maxWorkers.Store(int64(prev))
	fn()
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, w := range []int{1, 2, 3, 4, 7} {
		for _, n := range []int{0, 1, 2, 3, 5, 16, 97, 1024} {
			withWorkers(t, w, func() {
				hits := make([]int32, n)
				For(n, 1, func(lo, hi int) {
					if lo < 0 || hi > n || lo > hi {
						t.Errorf("w=%d n=%d: bad chunk [%d,%d)", w, n, lo, hi)
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("w=%d n=%d: index %d visited %d times", w, n, i, h)
					}
				}
			})
		}
	}
}

func TestForGrainLimitsFanOut(t *testing.T) {
	withWorkers(t, 8, func() {
		var calls atomic.Int32
		For(10, 100, func(lo, hi int) {
			calls.Add(1)
			if lo != 0 || hi != 10 {
				t.Errorf("grain should force a single chunk, got [%d,%d)", lo, hi)
			}
		})
		if calls.Load() != 1 {
			t.Fatalf("expected 1 chunk, got %d", calls.Load())
		}
	})
}

func TestForPartitionIsDeterministic(t *testing.T) {
	// The chunk boundaries must be a pure function of (n, grain, workers).
	collect := func() []int {
		var mu sync.Mutex
		var bounds []int
		For(103, 1, func(lo, hi int) {
			mu.Lock()
			bounds = append(bounds, lo, hi)
			mu.Unlock()
		})
		return bounds
	}
	withWorkers(t, 4, func() {
		a, b := collect(), collect()
		seen := map[int]bool{}
		for _, v := range a {
			seen[v] = true
		}
		for _, v := range b {
			if !seen[v] {
				t.Fatalf("partition changed between runs: %v vs %v", a, b)
			}
		}
		if len(a) != len(b) {
			t.Fatalf("chunk count changed: %d vs %d", len(a)/2, len(b)/2)
		}
	})
}

func TestSetMaxWorkersBounds(t *testing.T) {
	prev := int(maxWorkers.Load())
	defer maxWorkers.Store(int64(prev))

	SetMaxWorkers(0)
	if got := MaxWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("reset cap = %d, want GOMAXPROCS=%d", got, runtime.GOMAXPROCS(0))
	}
	SetMaxWorkers(-5)
	if got := MaxWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("negative cap = %d, want GOMAXPROCS=%d", got, runtime.GOMAXPROCS(0))
	}
	SetMaxWorkers(3)
	if got := MaxWorkers(); got != 3 {
		t.Fatalf("cap = %d, want 3", got)
	}
	SetMaxWorkers(1 << 20)
	if got := MaxWorkers(); got != hardCap {
		t.Fatalf("cap = %d, want clamp to %d", got, hardCap)
	}
}

// TestNestedForDoesNotDeadlock fans out three levels deep: every outer
// chunk's body starts its own region, whose chunks start regions again. Each
// region waits only on goroutines it started itself, so nesting cannot
// deadlock; a For that queued chunks on a bounded set of workers would hang
// here once every worker blocked in an inner wait.
func TestNestedForDoesNotDeadlock(t *testing.T) {
	withWorkers(t, 4, func() {
		var total atomic.Int64
		For(8, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				For(16, 1, func(l, h int) {
					for j := l; j < h; j++ {
						For(8, 1, func(l2, h2 int) {
							for k := l2; k < h2; k++ {
								total.Add(1)
							}
						})
					}
				})
			}
		})
		if total.Load() != 8*16*8 {
			t.Fatalf("nested total = %d, want %d", total.Load(), 8*16*8)
		}
	})
}

// TestPoolRaceHammer drives For from many goroutines at once, with the
// worker cap churning underneath, to give the race detector something to
// chew on. Run with -race (the CI `race` target does).
func TestPoolRaceHammer(t *testing.T) {
	prev := int(maxWorkers.Load())
	defer maxWorkers.Store(int64(prev))

	const goroutines = 8
	const iters = 50
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				if it%10 == 0 {
					SetMaxWorkers(1 + (g+it)%6)
				}
				For(128, 4, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						total.Add(1)
					}
				})
				For(3, 1, func(lo, hi int) {
					total.Add(int64(hi - lo))
				})
			}
		}(g)
	}
	wg.Wait()
	want := int64(goroutines * iters * (128 + 3))
	if total.Load() != want {
		t.Fatalf("hammer total = %d, want %d", total.Load(), want)
	}
}

// BenchmarkFor times one parallel region at a cap of two workers, as on a
// two-core host: "two-chunk" is the bare fork-join cost of an
// empty two-chunk region, and "15-item" is a fan-in batch's QueryBatch shape
// (16 samples, the first run before the region) with a few microseconds of
// arithmetic per item.
func BenchmarkFor(b *testing.B) {
	withWorkers(b, 2, func() {
		b.Run("two-chunk", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				For(2, 1, func(lo, hi int) {})
			}
		})
		b.Run("15-item", func(b *testing.B) {
			src := make([]float64, 4096)
			for i := range src {
				src[i] = float64(i%7) * 0.5
			}
			out := make([]float64, 15)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				For(len(out), 1, func(lo, hi int) {
					for j := lo; j < hi; j++ {
						var s float64
						for _, v := range src {
							s += v * float64(j+1)
						}
						out[j] = s
					}
				})
			}
		})
	})
}
