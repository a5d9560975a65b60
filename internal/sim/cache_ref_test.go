package sim

import "fmt"

// refCache is the original slice-of-lines Cache, kept verbatim (renamed) as
// the reference the packed Cache must match op for op: true LRU by a global
// use clock, the first invalid way in index order filled first.

// refLine is one cache way.
type refLine struct {
	tag        uint64
	valid      bool
	lastUse    uint64
	prefetched bool // filled by a prefetch
	used       bool // prefetched line touched by demand
}

// refCache is a set-associative cache with true-LRU replacement, addressed in
// cache blocks.
type refCache struct {
	sets    [][]refLine
	setMask uint64
	ways    int
	clock   uint64

	// Pollution bookkeeping.
	EvictedUnusedPrefetches int
}

// newRefCache builds a cache of the given total block capacity and
// associativity; blocks/ways must be a power of two.
func newRefCache(blocks, ways int) *refCache {
	if blocks <= 0 || ways <= 0 || blocks%ways != 0 {
		panic(fmt.Sprintf("sim: invalid cache geometry %d blocks / %d ways", blocks, ways))
	}
	nsets := blocks / ways
	if nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("sim: set count %d not a power of two", nsets))
	}
	sets := make([][]refLine, nsets)
	backing := make([]refLine, blocks)
	for i := range sets {
		sets[i] = backing[i*ways : (i+1)*ways]
	}
	return &refCache{sets: sets, setMask: uint64(nsets - 1), ways: ways}
}

// Sets returns the number of sets.
func (c *refCache) Sets() int { return len(c.sets) }

// Lookup probes for a block; when touch is true a hit refreshes LRU state
// and marks prefetched lines as used. It reports hit and whether this was
// the first demand touch of a prefetched line.
func (c *refCache) Lookup(block uint64, touch bool) (hit, firstPrefetchUse bool) {
	set := c.sets[block&c.setMask]
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == block {
			if touch {
				c.clock++
				l.lastUse = c.clock
				if l.prefetched && !l.used {
					l.used = true
					return true, true
				}
			}
			return true, false
		}
	}
	return false, false
}

// Insert fills a block, evicting the LRU way if needed. It reports whether
// an unused prefetched line was evicted (cache pollution).
func (c *refCache) Insert(block uint64, prefetched bool) (pollutedEvict bool) {
	_, _, pollutedEvict = c.InsertEvict(block, prefetched)
	return pollutedEvict
}

// InsertEvict is Insert that also reports the evicted victim's block address,
// the hook the two-level hierarchy uses to back-invalidate the private L2
// when an inclusive LLC replaces a line. evicted is false when the block was
// already present (refresh) or an invalid way absorbed the fill.
func (c *refCache) InsertEvict(block uint64, prefetched bool) (victimBlock uint64, evicted, pollutedEvict bool) {
	set := c.sets[block&c.setMask]
	c.clock++
	// Already present: refresh only.
	for i := range set {
		if set[i].valid && set[i].tag == block {
			set[i].lastUse = c.clock
			return 0, false, false
		}
	}
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			goto fill
		}
		if set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	victimBlock = set[victim].tag
	evicted = true
	if set[victim].prefetched && !set[victim].used {
		c.EvictedUnusedPrefetches++
		pollutedEvict = true
	}
fill:
	set[victim] = refLine{tag: block, valid: true, lastUse: c.clock, prefetched: prefetched}
	return victimBlock, evicted, pollutedEvict
}

// MarkUsed flags a resident prefetched line as demand-used without
// refreshing its LRU state — the bookkeeping hook for when a level closer
// to the core absorbs the demand hit, so the copy here was still a useful
// prefetch rather than pollution.
func (c *refCache) MarkUsed(block uint64) {
	set := c.sets[block&c.setMask]
	for i := range set {
		if set[i].valid && set[i].tag == block {
			set[i].used = true
			return
		}
	}
}

// Invalidate drops a block if present (inclusive-hierarchy back-invalidation)
// and reports whether it was resident. An invalidated never-used prefetched
// line counts toward this cache's pollution, same as an eviction would.
func (c *refCache) Invalidate(block uint64) bool {
	set := c.sets[block&c.setMask]
	for i := range set {
		if set[i].valid && set[i].tag == block {
			if set[i].prefetched && !set[i].used {
				c.EvictedUnusedPrefetches++
			}
			set[i] = refLine{}
			return true
		}
	}
	return false
}

// Occupancy returns the number of valid lines (for tests).
func (c *refCache) Occupancy() int {
	n := 0
	for _, set := range c.sets {
		for _, l := range set {
			if l.valid {
				n++
			}
		}
	}
	return n
}
