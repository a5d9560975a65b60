package sim

import (
	"testing"

	"dart/internal/trace"
)

func TestNewCacheGeometry(t *testing.T) {
	c := NewCache(64, 4)
	if c.Sets() != 16 {
		t.Fatalf("sets = %d", c.Sets())
	}
}

// badGeometries are cache shapes NewCache panics on and Config.Validate
// rejects.
var badGeometries = []struct{ blocks, ways int }{
	{60, 4},                   // 15 sets, not a power of two
	{62, 4},                   // blocks not a multiple of ways
	{17, 17},                  // one set, but more than MaxWays ways
	{34, 17},                  // two sets of 17 ways
	{MaxCacheBlocks * 2, 16},  // past MaxCacheBlocks
	{0, 4}, {16, 0}, {-16, 4}, // empty or negative
}

func TestNewCachePanicsOnBadGeometry(t *testing.T) {
	for _, g := range badGeometries {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCache(%d, %d): expected panic", g.blocks, g.ways)
				}
			}()
			NewCache(g.blocks, g.ways)
		}()
	}
	// The limits themselves are legal.
	NewCache(MaxWays, MaxWays)
	NewCache(MaxCacheBlocks, MaxWays)
}

func TestCacheHitAfterInsert(t *testing.T) {
	c := NewCache(16, 4)
	if hit, _ := c.Lookup(100, true); hit {
		t.Fatal("hit in empty cache")
	}
	c.Insert(100, false)
	if hit, _ := c.Lookup(100, true); !hit {
		t.Fatal("miss after insert")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(4, 4) // one set, 4 ways
	for b := uint64(0); b < 4; b++ {
		c.Insert(b, false)
	}
	c.Lookup(0, true) // refresh block 0
	c.Insert(4, false)
	// Block 1 was LRU and must be gone; block 0 must survive.
	if hit, _ := c.Lookup(1, false); hit {
		t.Fatal("LRU victim still present")
	}
	if hit, _ := c.Lookup(0, false); !hit {
		t.Fatal("recently used block evicted")
	}
}

func TestCachePrefetchUseTracking(t *testing.T) {
	c := NewCache(16, 4)
	c.Insert(7, true)
	hit, first := c.Lookup(7, true)
	if !hit || !first {
		t.Fatalf("first touch: hit=%v first=%v", hit, first)
	}
	hit, first = c.Lookup(7, true)
	if !hit || first {
		t.Fatalf("second touch: hit=%v first=%v", hit, first)
	}
}

func TestCachePollutionCounting(t *testing.T) {
	c := NewCache(2, 2) // one set, 2 ways
	c.Insert(0, true)   // prefetch, never used
	c.Insert(2, false)
	c.Insert(4, false) // evicts the unused prefetch
	if c.EvictedUnusedPrefetches != 1 {
		t.Fatalf("pollution = %d", c.EvictedUnusedPrefetches)
	}
}

func TestCacheInsertExistingRefreshes(t *testing.T) {
	c := NewCache(2, 2)
	c.Insert(0, false)
	c.Insert(2, false)
	c.Insert(0, false) // refresh, no eviction
	if c.Occupancy() != 2 {
		t.Fatalf("occupancy = %d", c.Occupancy())
	}
	if hit, _ := c.Lookup(2, false); !hit {
		t.Fatal("refresh insert evicted another line")
	}
}

// seqRecords builds a unit-stride load trace.
func seqRecords(n int, instrGap uint64) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{
			InstrID: uint64(i+1) * instrGap,
			PC:      0x400000,
			Addr:    uint64(i) << trace.BlockBits,
			IsLoad:  true,
		}
	}
	return recs
}

// nextLine is a perfect next-N-lines prefetcher for unit-stride traces.
type nextLine struct {
	degree  int
	latency int
}

func (p nextLine) Name() string { return "next-line" }
func (p nextLine) OnAccess(a Access) []uint64 {
	out := make([]uint64, p.degree)
	for i := range out {
		out[i] = a.Block + uint64(i+1)
	}
	return out
}
func (p nextLine) Latency() int      { return p.latency }
func (p nextLine) StorageBytes() int { return 0 }

// randomPrefetcher issues useless far-away prefetches.
type randomPrefetcher struct{ n uint64 }

func (p *randomPrefetcher) Name() string { return "random" }
func (p *randomPrefetcher) OnAccess(a Access) []uint64 {
	p.n += 7919
	return []uint64{1<<40 + p.n*131}
}
func (p *randomPrefetcher) Latency() int      { return 0 }
func (p *randomPrefetcher) StorageBytes() int { return 0 }

func TestBaselineSequentialAllMisses(t *testing.T) {
	recs := seqRecords(2000, 40)
	res := Run(recs, NoPrefetcher{}, DefaultConfig())
	if res.Accesses != 2000 {
		t.Fatalf("accesses = %d", res.Accesses)
	}
	// Every block is new: all demand misses.
	if res.DemandMisses != 2000 {
		t.Fatalf("misses = %d", res.DemandMisses)
	}
	if res.IPC <= 0 {
		t.Fatal("non-positive IPC")
	}
}

func TestNextLinePrefetcherCoversSequential(t *testing.T) {
	recs := seqRecords(5000, 40)
	cfg := DefaultConfig()
	base := Run(recs, NoPrefetcher{}, cfg)
	pf := Run(recs, nextLine{degree: 4, latency: 10}, cfg)
	if cov := Coverage(base, pf); cov < 0.8 {
		t.Fatalf("next-line coverage %v < 0.8 on a pure stream", cov)
	}
	if acc := pf.Accuracy(); acc < 0.8 {
		t.Fatalf("next-line accuracy %v < 0.8 on a pure stream", acc)
	}
	if imp := IPCImprovement(base, pf); imp <= 0 {
		t.Fatalf("no IPC improvement: %v", imp)
	}
}

func TestPrefetcherLatencyHurts(t *testing.T) {
	// The same predictions issued later must help less (the paper's central
	// observation about NN prefetchers).
	recs := seqRecords(5000, 40)
	cfg := DefaultConfig()
	base := Run(recs, NoPrefetcher{}, cfg)
	fast := Run(recs, nextLine{degree: 2, latency: 0}, cfg)
	slow := Run(recs, nextLine{degree: 2, latency: 30000}, cfg)
	impFast := IPCImprovement(base, fast)
	impSlow := IPCImprovement(base, slow)
	if impSlow >= impFast {
		t.Fatalf("latency did not hurt: fast %v vs slow %v", impFast, impSlow)
	}
}

func TestRandomPrefetcherUselessAndPolluting(t *testing.T) {
	recs := seqRecords(5000, 40)
	cfg := DefaultConfig()
	pf := Run(recs, &randomPrefetcher{}, cfg)
	if pf.PrefetchIssued == 0 {
		t.Fatal("no prefetches issued")
	}
	if acc := pf.Accuracy(); acc > 0.01 {
		t.Fatalf("random prefetcher accuracy %v suspiciously high", acc)
	}
}

func TestIPCImprovementSigns(t *testing.T) {
	base := Result{IPC: 2}
	better := Result{IPC: 2.5}
	worse := Result{IPC: 1.5}
	if IPCImprovement(base, better) <= 0 || IPCImprovement(base, worse) >= 0 {
		t.Fatal("IPC improvement signs wrong")
	}
	if IPCImprovement(Result{}, better) != 0 {
		t.Fatal("zero baseline should yield 0")
	}
}

func TestCoverageBounds(t *testing.T) {
	base := Result{DemandMisses: 100}
	if got := Coverage(base, Result{DemandMisses: 25}); got != 0.75 {
		t.Fatalf("coverage = %v", got)
	}
	// More misses than baseline clamps to 0.
	if got := Coverage(base, Result{DemandMisses: 150}); got != 0 {
		t.Fatalf("negative coverage not clamped: %v", got)
	}
	if got := Coverage(Result{}, Result{}); got != 0 {
		t.Fatalf("empty coverage = %v", got)
	}
}

func TestRunDeterministic(t *testing.T) {
	recs := trace.Generate(trace.AppSpec{Name: "t", Pages: 200, Streams: 4, Seed: 5}, 3000)
	cfg := DefaultConfig()
	a := Run(recs, nextLine{degree: 2, latency: 5}, cfg)
	b := Run(recs, nextLine{degree: 2, latency: 5}, cfg)
	if a != b {
		t.Fatalf("nondeterministic results:\n%+v\n%+v", a, b)
	}
}

func TestTemporalReuseHits(t *testing.T) {
	// A loop over a small footprint must eventually hit.
	var recs []trace.Record
	instr := uint64(0)
	for rep := 0; rep < 3; rep++ {
		for b := uint64(0); b < 100; b++ {
			instr += 20
			recs = append(recs, trace.Record{InstrID: instr, Addr: b << trace.BlockBits})
		}
	}
	res := Run(recs, NoPrefetcher{}, DefaultConfig())
	if res.DemandHits != 200 {
		t.Fatalf("hits = %d, want 200", res.DemandHits)
	}
}

func TestLateCoverageCounted(t *testing.T) {
	// With a prefetcher that is slower than the access gap, prefetches are in
	// flight when demanded: late but partially useful.
	recs := seqRecords(2000, 4) // tight access spacing
	cfg := DefaultConfig()
	pf := Run(recs, nextLine{degree: 1, latency: 500}, cfg)
	if pf.LateCovered == 0 {
		t.Fatal("expected late-covered prefetches with a slow prefetcher")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Config{}).Validate(); err == nil {
		t.Fatal("empty config should fail")
	}
}
