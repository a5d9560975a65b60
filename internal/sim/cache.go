// Package sim is a trace-driven cache-hierarchy simulator in the spirit of
// ChampSim's LLC model (paper Sec. VII-A1, Table III). Traces are LLC access
// streams (upper cache levels are implicit in the trace, exactly as in the
// paper's methodology of extracting LLC traces with ChampSim); the simulator
// models a set-associative LLC with LRU replacement and MSHRs, a DRAM
// latency/bandwidth model, an out-of-order core that hides latency up to its
// reorder window, and an LLC prefetcher with an explicit inference-latency
// model — the mechanism that separates DART from the slow NN baselines in
// Figs. 12-14.
//
// The hierarchy is configurable: by default the model is the paper's single
// shared LLC, but setting Config.L2Blocks > 0 interposes a private L2 in
// front of it (TwoLevelConfig is the ready-made shape). In two-level mode
// demand accesses probe the L2 first; only L2 misses reach the LLC, train
// the prefetcher, and touch LLC LRU state. Fills on the demand path install
// into both levels, prefetch fills install into the LLC and — only when
// Config.PrefetchFillL2 is set — into the L2, and with Config.L2Inclusive
// an LLC eviction back-invalidates the L2 copy. The zero-valued L2 config
// is the degenerate single-level machine and is bit-identical to the
// original LLC-only simulator; pollution and coverage metrics therefore
// land in a structurally real cache without disturbing the paper baseline.
//
// Every simulator is per session, so a cache's state is packed: one flat
// []uint64 of ways+2 words per set (see Cache), 1.1 MiB for the default
// 8 MiB 16-way LLC. A cache has at most MaxWays ways and MaxCacheBlocks
// blocks, and a power-of-two number of sets; Config.Validate rejects any
// other geometry, so a client-supplied config is an error, not a panic.
package sim

import (
	"fmt"
	"math/bits"
)

const (
	// MaxWays is the largest associativity a Cache models: a set's valid,
	// prefetched and used flags are 16-bit masks, and its recency order is
	// 16 nibbles.
	MaxWays = 16
	// MaxCacheBlocks bounds one cache's capacity: 1<<20 blocks is a 64 MiB
	// modelled cache and 9 MiB of simulator state, 8x the paper's LLC.
	MaxCacheBlocks = 1 << 20
)

// Per-set state word: three masks of one bit per way.
const (
	validShift      = 0
	prefetchedShift = 16
	usedShift       = 32
)

// Recency word constants: way indices are nibbles, most recent lowest.
const (
	nibbleOnes  = 0x1111111111111111
	nibbleHighs = 0x8888888888888888
	// initialOrder ranks way i at position i, so positions >= ways hold
	// indices >= ways and are never moved.
	initialOrder = 0xFEDCBA9876543210
)

// Cache is a set-associative cache with true-LRU replacement, addressed in
// cache blocks.
//
// Its state is one flat []uint64 holding ways+2 words per set: the ways'
// resident full block addresses (no tag width limit, so any uint64 block
// is representable), a state word of three 16-bit masks (valid, prefetched,
// used), and a recency word listing the way indices as nibbles, most
// recently used in the low nibble. A hit that touches, a refreshing insert
// and a fill move the way to the front; the victim is the lowest-index
// invalid way, otherwise the last nibble — exactly the least recently used.
type Cache struct {
	words   []uint64
	setMask uint64
	ways    int

	// Pollution bookkeeping.
	EvictedUnusedPrefetches int
}

// cacheGeometry reports why blocks/ways is not a cache NewCache can build.
func cacheGeometry(blocks, ways int) error {
	switch {
	case blocks <= 0 || ways <= 0 || blocks%ways != 0:
		return fmt.Errorf("invalid cache geometry %d blocks / %d ways", blocks, ways)
	case ways > MaxWays:
		return fmt.Errorf("%d ways exceeds the maximum of %d", ways, MaxWays)
	case blocks > MaxCacheBlocks:
		return fmt.Errorf("%d blocks exceeds the maximum of %d", blocks, MaxCacheBlocks)
	}
	if nsets := blocks / ways; nsets&(nsets-1) != 0 {
		return fmt.Errorf("set count %d not a power of two", nsets)
	}
	return nil
}

// NewCache builds a cache of the given total block capacity and
// associativity. It panics unless blocks/ways is a power of two, ways is at
// most MaxWays and blocks at most MaxCacheBlocks (Config.Validate checks the
// same rules as an error).
func NewCache(blocks, ways int) *Cache {
	if err := cacheGeometry(blocks, ways); err != nil {
		panic("sim: " + err.Error())
	}
	nsets := blocks / ways
	words := make([]uint64, nsets*(ways+2))
	for s := 0; s < nsets; s++ {
		words[s*(ways+2)+ways+1] = initialOrder
	}
	return &Cache{words: words, setMask: uint64(nsets - 1), ways: ways}
}

// set returns the words of block's set: the ways' blocks, then the state
// word at index ways, then the recency word at ways+1.
func (c *Cache) set(block uint64) []uint64 {
	n := c.ways + 2
	base := int(block&c.setMask) * n
	return c.words[base : base+n : base+n]
}

// find returns the way holding block valid in set, or -1.
func find(set []uint64, ways int, block uint64) int {
	valid := set[ways] >> validShift
	for w, b := range set[:ways] {
		if b == block && valid>>w&1 != 0 {
			return w
		}
	}
	return -1
}

// promote moves way w to the front of the recency word at *order.
func promote(order *uint64, w int) {
	o := *order
	if int(o&0xF) == w {
		return
	}
	// SWAR zero-nibble search: the lowest flagged nibble of o^(w*ones) is
	// w's position (borrows only flag nibbles above a true zero).
	x := o ^ uint64(w)*nibbleOnes
	p := uint(bits.TrailingZeros64((x-nibbleOnes)&^x&nibbleHighs)) &^ 3
	below := uint64(1)<<p - 1
	above := ^(uint64(1)<<(p+4) - 1) // 0 when w is the 16th nibble
	*order = o&above | (o&below)<<4 | uint64(w)
}

// Lookup probes for a block; when touch is true a hit refreshes LRU state
// and marks prefetched lines as used. It reports hit and whether this was
// the first demand touch of a prefetched line.
func (c *Cache) Lookup(block uint64, touch bool) (hit, firstPrefetchUse bool) {
	set := c.set(block)
	w := find(set, c.ways, block)
	if w < 0 {
		return false, false
	}
	if touch {
		promote(&set[c.ways+1], w)
		st := &set[c.ways]
		if *st>>(prefetchedShift+w)&1 != 0 && *st>>(usedShift+w)&1 == 0 {
			*st |= 1 << (usedShift + w)
			return true, true
		}
	}
	return true, false
}

// Insert fills a block, evicting the LRU way if needed. It reports whether
// an unused prefetched line was evicted (cache pollution).
func (c *Cache) Insert(block uint64, prefetched bool) (pollutedEvict bool) {
	_, _, pollutedEvict = c.InsertEvict(block, prefetched)
	return pollutedEvict
}

// InsertEvict is Insert that also reports the evicted victim's block address,
// the hook the two-level hierarchy uses to back-invalidate the private L2
// when an inclusive LLC replaces a line. evicted is false when the block was
// already present (refresh) or an invalid way absorbed the fill.
func (c *Cache) InsertEvict(block uint64, prefetched bool) (victimBlock uint64, evicted, pollutedEvict bool) {
	set := c.set(block)
	order := &set[c.ways+1]
	// Already present: refresh only.
	if w := find(set, c.ways, block); w >= 0 {
		promote(order, w)
		return 0, false, false
	}
	st := set[c.ways]
	var victim int
	if valid := st >> validShift & (1<<c.ways - 1); valid != 1<<c.ways-1 {
		victim = bits.TrailingZeros64(^valid)
	} else {
		victim = int(*order >> (4 * (c.ways - 1)) & 0xF)
		victimBlock = set[victim]
		evicted = true
		if st>>(prefetchedShift+victim)&1 != 0 && st>>(usedShift+victim)&1 == 0 {
			c.EvictedUnusedPrefetches++
			pollutedEvict = true
		}
	}
	st &^= 1<<(prefetchedShift+victim) | 1<<(usedShift+victim)
	st |= 1 << (validShift + victim)
	if prefetched {
		st |= 1 << (prefetchedShift + victim)
	}
	set[victim] = block
	set[c.ways] = st
	promote(order, victim)
	return victimBlock, evicted, pollutedEvict
}

// MarkUsed flags a resident prefetched line as demand-used without
// refreshing its LRU state — the bookkeeping hook for when a level closer
// to the core absorbs the demand hit, so the copy here was still a useful
// prefetch rather than pollution.
func (c *Cache) MarkUsed(block uint64) {
	set := c.set(block)
	if w := find(set, c.ways, block); w >= 0 {
		set[c.ways] |= 1 << (usedShift + w)
	}
}

// Invalidate drops a block if present (inclusive-hierarchy back-invalidation)
// and reports whether it was resident. An invalidated never-used prefetched
// line counts toward this cache's pollution, same as an eviction would.
func (c *Cache) Invalidate(block uint64) bool {
	set := c.set(block)
	w := find(set, c.ways, block)
	if w < 0 {
		return false
	}
	st := set[c.ways]
	if st>>(prefetchedShift+w)&1 != 0 && st>>(usedShift+w)&1 == 0 {
		c.EvictedUnusedPrefetches++
	}
	set[c.ways] = st &^ (1<<(validShift+w) | 1<<(prefetchedShift+w) | 1<<(usedShift+w))
	return true
}
