package sim

import (
	"testing"

	"dart/internal/trace"
)

// BenchmarkRunBaseline measures raw simulator throughput (accesses/op is the
// trace length).
func BenchmarkRunBaseline(b *testing.B) {
	recs := trace.Generate(trace.AppSpec{Name: "b", Pages: 500, Streams: 4, Seed: 1}, 10000)
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(recs, NoPrefetcher{}, cfg)
	}
}

// BenchmarkRunWithPrefetcher includes prefetch-queue bookkeeping.
func BenchmarkRunWithPrefetcher(b *testing.B) {
	recs := trace.Generate(trace.AppSpec{Name: "b", Pages: 500, Streams: 4, Seed: 1}, 10000)
	cfg := DefaultConfig()
	pf := &nextLine{degree: 4, latency: 30}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(recs, pf, cfg)
	}
}

// BenchmarkCacheLookup is an all-hit touching lookup loop over a full
// 16-way cache: the set scan plus the LRU move-to-front.
func BenchmarkCacheLookup(b *testing.B) {
	c := NewCache(1<<14, 16)
	for blk := uint64(0); blk < 1<<14; blk++ {
		c.Insert(blk, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(uint64(i)&(1<<14-1), true)
	}
}

// BenchmarkCacheFill is a miss-then-evict stream into one 16-way set: every
// insert is a new block, so each one picks and replaces the LRU way (half of
// them unused prefetches, counted as pollution).
func BenchmarkCacheFill(b *testing.B) {
	const blocks, ways = 1 << 14, 16
	const sets = blocks / ways
	c := NewCache(blocks, ways)
	for i := 0; i < ways; i++ {
		c.Insert(uint64(i)*sets, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(uint64(ways+i)*sets, i&1 == 0)
	}
}
