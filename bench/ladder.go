package main

import (
	"runtime"
	"time"
)

// ladderBatch is how long one timed batch of a ladder rung runs; a rung is
// the median of ladderBatches of them. Short enough that the ≈45 rungs of a
// traced run fit in a few seconds, long enough that the clock read is noise.
const (
	ladderBatch   = 8 * time.Millisecond
	ladderBatches = 5
)

// timeOp returns the median wall time, in ns, of one of the `units` operations
// each call of fn performs.
func timeOp(units int, fn func()) float64 {
	return medianBatch(units, func(iters int) time.Duration {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		return time.Since(t0)
	})
}

// timeOpPrepared is timeOp with an untimed prepare before every call of fn:
// fresh state (a new simulator, a new session) that is not the rung's cost.
// The clock is read around every call, so fn must run for microseconds.
func timeOpPrepared(units int, prepare, fn func()) float64 {
	return medianBatch(units, func(iters int) time.Duration {
		var total time.Duration
		for i := 0; i < iters; i++ {
			prepare()
			t0 := time.Now()
			fn()
			total += time.Since(t0)
		}
		return total
	})
}

// medianBatch sizes a batch of calls to ladderBatch and returns the median
// time per unit over ladderBatches of them; run(n) times n calls.
func medianBatch(units int, run func(iters int) time.Duration) float64 {
	run(1) // warm: lazy set-up and cache fill are not the rung's cost
	iters := max(1, int(ladderBatch/max(run(1), 1)))
	samples := make([]float64, ladderBatches)
	for b := range samples {
		samples[b] = float64(run(iters).Nanoseconds()) / float64(iters*units)
	}
	return median(samples)
}

// allocsPerOp returns the heap allocations per operation of fn. It is exact
// only while no other goroutine allocates, which holds on the ladder: every
// system the traced rounds started has been stopped by then.
func allocsPerOp(units int, fn func()) float64 {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(units)
}
