// Package par is the fork-join helper behind every parallel kernel in this
// repository: blocked matrix multiplication (internal/mat), batched PQ
// encoding (internal/pq), batched table queries (internal/tabular), and the
// multi-trace simulation driver (internal/sim).
//
// For splits an index range into one contiguous chunk per worker. Chunk
// boundaries depend only on the range length and the worker count, never on
// scheduling, so a caller that partitions its work in fixed-size blocks (as
// internal/mat does) gets bit-identical results for any worker count. A
// region starts a goroutine per chunk but the last, which the caller runs,
// and waits for them; a nested For starts its own, so it cannot deadlock.
//
// The worker cap defaults to GOMAXPROCS; SetMaxWorkers or the
// DART_MAX_WORKERS environment variable (read once at startup) override it.
package par

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// hardCap bounds the goroutines one region may start.
const hardCap = 256

// maxWorkers holds the configured cap; 0 selects GOMAXPROCS at call time.
var maxWorkers atomic.Int64

func init() {
	if s := os.Getenv("DART_MAX_WORKERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil {
			SetMaxWorkers(n)
		}
	}
}

// SetMaxWorkers caps the number of goroutines a parallel region may use.
// Values below 1 reset the cap to GOMAXPROCS; values above 256 are clamped.
func SetMaxWorkers(n int) {
	if n < 1 {
		n = 0 // resolve to GOMAXPROCS at call time
	}
	if n > hardCap {
		n = hardCap
	}
	maxWorkers.Store(int64(n))
}

// MaxWorkers returns the current worker cap (always >= 1).
func MaxWorkers() int {
	if n := int(maxWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// For executes body over [0, n), split into one contiguous chunk per worker.
// grain is the minimum chunk size (in items); ranges shorter than 2*grain
// run inline. The partition is a pure function of (n, grain, MaxWorkers()):
// even division into w chunks with the remainder spread over the leading
// chunks, so every chunk holds at least n/w >= grain items. body must be
// safe to call concurrently on disjoint ranges and must not panic. Chunks
// 0..w-2 run on new goroutines; the caller runs the last, then waits.
func For(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	w := MaxWorkers()
	if maxChunks := n / grain; w > maxChunks {
		w = maxChunks
	}
	if w <= 1 {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	base, rem := n/w, n%w
	lo := 0
	for c := 0; c < w-1; c++ {
		hi := lo + base
		if c < rem {
			hi++
		}
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
		lo = hi
	}
	body(lo, n)
	wg.Wait()
}
