package sim

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestPackedCacheMatchesReference drives the packed Cache and the original
// slice-of-lines refCache with the same seeded random op streams, over every
// associativity 1..MaxWays and power-of-two set counts 1..16, and compares
// every return value, the pollution count and the occupancy after every op.
// The block pool includes block 0 and blocks with the top bits set, so a
// stale address in an invalid way and wrapped prefetch addresses are both
// exercised.
func TestPackedCacheMatchesReference(t *testing.T) {
	seeds, ops := 300, 5000
	if testing.Short() {
		seeds = 60
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		ways := 1 + seed%MaxWays
		sets := 1 << rng.Intn(5)
		got, want := NewCache(ways*sets, ways), newRefCache(ways*sets, ways)

		// About three lines per way and set compete, so sets overflow
		// and blocks return after eviction.
		tags := []uint64{0, 1, 2, 1 << 40, 1<<63 - 1, ^uint64(0) / uint64(sets)}
		for len(tags) < 3*ways {
			tags = append(tags, rng.Uint64()>>uint(rng.Intn(64)))
		}
		pool := make([]uint64, 0, len(tags)*sets)
		for _, tag := range tags {
			for s := 0; s < sets; s++ {
				pool = append(pool, tag*uint64(sets)+uint64(s))
			}
		}

		for i := 0; i < ops; i++ {
			b := pool[rng.Intn(len(pool))]
			switch op := rng.Intn(10); {
			case op < 4:
				touch := op < 3
				gh, gf := got.Lookup(b, touch)
				wh, wf := want.Lookup(b, touch)
				if gh != wh || gf != wf {
					t.Fatalf("seed %d op %d: Lookup(%#x, %v) = %v, %v; reference %v, %v", seed, i, b, touch, gh, gf, wh, wf)
				}
			case op < 8:
				pf := rng.Intn(2) == 0
				gv, ge, gp := got.InsertEvict(b, pf)
				wv, we, wp := want.InsertEvict(b, pf)
				if gv != wv || ge != we || gp != wp {
					t.Fatalf("seed %d op %d: InsertEvict(%#x, %v) = %#x, %v, %v; reference %#x, %v, %v", seed, i, b, pf, gv, ge, gp, wv, we, wp)
				}
			case op < 9:
				got.MarkUsed(b)
				want.MarkUsed(b)
			default:
				if g, w := got.Invalidate(b), want.Invalidate(b); g != w {
					t.Fatalf("seed %d op %d: Invalidate(%#x) = %v; reference %v", seed, i, b, g, w)
				}
			}
			if got.EvictedUnusedPrefetches != want.EvictedUnusedPrefetches || got.Occupancy() != want.Occupancy() {
				t.Fatalf("seed %d op %d: pollution %d, occupancy %d; reference %d, %d", seed, i,
					got.EvictedUnusedPrefetches, got.Occupancy(), want.EvictedUnusedPrefetches, want.Occupancy())
			}
		}
		for _, b := range pool {
			gh, _ := got.Lookup(b, false)
			wh, _ := want.Lookup(b, false)
			if gh != wh {
				t.Fatalf("seed %d: %#x resident %v at the end; reference %v", seed, b, gh, wh)
			}
		}
	}
}

// TestSessionBytes pins the heap one served session's simulator costs: a
// NewSim over DefaultConfig's 8 MiB 16-way LLC allocates at most 1.25 MiB.
func TestSessionBytes(t *testing.T) {
	const limit = 5 << 20 / 4
	var ms runtime.MemStats
	least := ^uint64(0)
	for i := 0; i < 3; i++ { // the least of three filters stray allocations
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		s := NewSim(NoPrefetcher{}, DefaultConfig())
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(s)
		least = min(least, ms.TotalAlloc-before)
	}
	if least > limit {
		t.Fatalf("NewSim(DefaultConfig) allocates %d B, want <= %d", least, limit)
	}
}

// TestValidateRejectsBadGeometry: every shape NewCache panics on is an error
// from Config.Validate, for the LLC and for an enabled L2, so a config from
// a client never reaches the panic.
func TestValidateRejectsBadGeometry(t *testing.T) {
	for _, g := range badGeometries {
		llc := DefaultConfig()
		llc.LLCBlocks, llc.LLCWays = g.blocks, g.ways
		if llc.Validate() == nil {
			t.Errorf("LLC %d blocks / %d ways validated", g.blocks, g.ways)
		}
		if g.blocks == 0 {
			continue // zero L2 blocks is the single-level machine
		}
		l2 := TwoLevelConfig()
		l2.L2Blocks, l2.L2Ways = g.blocks, g.ways
		if l2.Validate() == nil {
			t.Errorf("L2 %d blocks / %d ways validated", g.blocks, g.ways)
		}
	}
	// A disabled L2's ways are not checked.
	off := DefaultConfig()
	off.L2Ways = 17
	if err := off.Validate(); err != nil {
		t.Fatal(err)
	}
}
