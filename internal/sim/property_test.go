package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dart/internal/trace"
)

// TestCacheOccupancyBounded: inserting n distinct blocks into one set fills
// at most `ways` lines and exactly min(n, ways).
func TestCacheOccupancyBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ways := 1 + rng.Intn(8)
		sets := 1 << rng.Intn(4)
		c := NewCache(ways*sets, ways)
		n := rng.Intn(4 * ways)
		for i := 0; i < n; i++ {
			// All blocks land in set 0.
			c.Insert(uint64(i*sets), false)
		}
		want := n
		if want > ways {
			want = ways
		}
		return c.Occupancy() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMostRecentInsertsPresent: with LRU, the last `ways` distinct inserts to
// a set are always resident.
func TestMostRecentInsertsPresent(t *testing.T) {
	c := NewCache(8, 4) // 2 sets, 4 ways
	var blocks []uint64
	for i := 0; i < 20; i++ {
		b := uint64(i * 2) // all in set 0
		c.Insert(b, false)
		blocks = append(blocks, b)
	}
	for _, b := range blocks[len(blocks)-4:] {
		if hit, _ := c.Lookup(b, false); !hit {
			t.Fatalf("recently inserted block %d missing", b)
		}
	}
}

// TestIPCNeverExceedsWidth: IPC is bounded by the core width.
func TestIPCNeverExceedsWidth(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		spec := trace.AppSpec{
			Name: "p", Pages: 50 + rng.Intn(500),
			Streams: 1 + rng.Intn(4), Seed: seed,
		}
		recs := trace.Generate(spec, 2000)
		cfg := DefaultConfig()
		res := Run(recs, NoPrefetcher{}, cfg)
		return res.IPC <= float64(cfg.CoreWidth)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPrefetchNeverHurtsCorrectness: issued prefetch counts are consistent
// (useful ≤ issued; late ≤ useful) on random traces.
func TestPrefetchCountsConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		spec := trace.AppSpec{
			Name: "p", Pages: 100 + rng.Intn(300),
			Streams: 1 + rng.Intn(3), Strides: []int64{1, 2},
			IrregularFrac: rng.Float64() * 0.3, Seed: seed,
		}
		recs := trace.Generate(spec, 2000)
		res := Run(recs, &nextLine{degree: 1 + rng.Intn(4), latency: rng.Intn(300)}, DefaultConfig())
		return res.PrefetchUseful <= res.PrefetchIssued &&
			res.LateCovered <= res.PrefetchUseful &&
			res.DemandHits+res.DemandMisses+res.LateCovered == res.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestPerfectPrefetchBeatsNone: prefetching every future block exactly (an
// oracle) can only reduce cycles.
func TestOraclePrefetchImprovesIPC(t *testing.T) {
	recs := seqRecords(3000, 40)
	cfg := DefaultConfig()
	base := Run(recs, NoPrefetcher{}, cfg)
	oracle := Run(recs, &nextLine{degree: 8, latency: 0}, cfg)
	if oracle.IPC <= base.IPC {
		t.Fatalf("oracle IPC %v <= baseline %v", oracle.IPC, base.IPC)
	}
}
