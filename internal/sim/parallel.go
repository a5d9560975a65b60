package sim

import (
	"dart/internal/par"
	"dart/internal/trace"
)

// Job is one independent simulation: a trace, a prefetcher instance, and a
// machine configuration. Prefetchers are stateful, so every job must carry
// its own instance — sharing one Prefetcher across jobs is a data race.
type Job struct {
	Name string // optional label; overrides the result's Prefetcher field
	Recs []trace.Record
	PF   Prefetcher
	Cfg  Config
}

// RunMany executes the jobs concurrently through par.For and
// returns results in job order. Each job runs the exact sequential Run, so
// the result slice is bit-identical to looping over Run serially, for any
// worker count.
func RunMany(jobs []Job) []Result {
	out := make([]Result, len(jobs))
	par.For(len(jobs), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			j := jobs[i]
			out[i] = Run(j.Recs, j.PF, j.Cfg)
			if j.Name != "" {
				out[i].Prefetcher = j.Name
			}
		}
	})
	return out
}

// Merge folds many per-trace results into one aggregate: counters sum,
// instructions and cycles accumulate, and IPC is recomputed from the
// totals. The fold runs in slice order on one goroutine, so merging is
// deterministic regardless of how the inputs were produced.
func Merge(results []Result) Result {
	var m Result
	if len(results) == 0 {
		return m
	}
	m.Prefetcher = results[0].Prefetcher
	for _, r := range results {
		m.Instructions += r.Instructions
		m.Cycles += r.Cycles
		m.Accesses += r.Accesses
		m.L2Hits += r.L2Hits
		m.DemandHits += r.DemandHits
		m.DemandMisses += r.DemandMisses
		m.LateCovered += r.LateCovered
		m.PrefetchIssued += r.PrefetchIssued
		m.PrefetchUseful += r.PrefetchUseful
		m.PrefetchDropped += r.PrefetchDropped
		m.Pollution += r.Pollution
		m.L2Pollution += r.L2Pollution
	}
	if m.Cycles > 0 {
		m.IPC = float64(m.Instructions) / m.Cycles
	}
	return m
}
