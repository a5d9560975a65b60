// Package prefetch implements the LLC prefetchers evaluated in the paper
// (Table IX): the rule-based Best-Offset (BO) and Irregular Stream Buffer
// (ISB) baselines, and a generic neural/table predictor wrapper used for
// DART, the TransFetch-class attention baseline, the Voyager-class LSTM
// baseline, and their zero-latency "ideal" variants.
package prefetch

import "dart/internal/sim"

// defaultOffsets is BO's candidate offset list: offsets with prime factors
// ≤ 5 up to 64, positive and negative, as in Michaud's design.
func defaultOffsets() []int64 {
	base := []int64{1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24, 25,
		27, 30, 32, 36, 40, 45, 48, 50, 54, 60, 64}
	out := make([]int64, 0, 2*len(base))
	for _, b := range base {
		out = append(out, b, -b)
	}
	return out
}

// BestOffset is the BO prefetcher (HPCA'16): a recent-requests table records
// the addresses of recent accesses; a scoring phase round-robins through
// candidate offsets, crediting offset d whenever the current access X has
// X - d in the table (meaning a prefetch at offset d issued back then would
// be useful now). The best-scoring offset becomes the active prefetch offset.
type BestOffset struct {
	offsets []int64
	scores  []int
	testIdx int
	round   int
	active  int64
	degree  int
	latency int

	rr    []rrEntry // recent-requests ring
	rrPos int
	rrSet map[uint64]int // block -> refcount in ring
	buf   []uint64       // OnAccess return buffer, reused every call

	// Tunables (paper defaults).
	ScoreMax int
	RoundMax int
}

// NewBestOffset returns BO with the configuration of Table IX: ~4 KB of
// state and ≈60-cycle decision latency.
func NewBestOffset(degree int) *BestOffset {
	b := &BestOffset{
		offsets:  defaultOffsets(),
		active:   1,
		degree:   degree,
		latency:  60,
		rr:       make([]rrEntry, 256),
		rrSet:    make(map[uint64]int, 256),
		ScoreMax: 31,
		RoundMax: 100,
	}
	b.scores = make([]int, len(b.offsets))
	return b
}

// Name identifies the prefetcher.
func (b *BestOffset) Name() string { return "BO" }

// Latency is the decision latency in cycles.
func (b *BestOffset) Latency() int { return b.latency }

// StorageBytes reports the hardware budget of Table IX.
func (b *BestOffset) StorageBytes() int { return 4 << 10 }

// rrEntry is one recent-requests ring slot.
type rrEntry struct {
	block uint64
	valid bool
}

// insertRR records a block in the recent-requests ring.
func (b *BestOffset) insertRR(block uint64) {
	old := b.rr[b.rrPos]
	if old.valid {
		if c := b.rrSet[old.block]; c <= 1 {
			delete(b.rrSet, old.block)
		} else {
			b.rrSet[old.block] = c - 1
		}
	}
	b.rr[b.rrPos] = rrEntry{block: block, valid: true}
	b.rrSet[block]++
	b.rrPos = (b.rrPos + 1) % len(b.rr)
}

// OnAccess trains the offset scores and prefetches with the active offset.
func (b *BestOffset) OnAccess(a sim.Access) []uint64 {
	// Learning: test the next candidate offset against the RR table.
	d := b.offsets[b.testIdx]
	if prev := int64(a.Block) - d; prev > 0 {
		if _, ok := b.rrSet[uint64(prev)]; ok {
			b.scores[b.testIdx]++
			if b.scores[b.testIdx] >= b.ScoreMax {
				b.adopt(b.testIdx)
			}
		}
	}
	b.testIdx++
	if b.testIdx == len(b.offsets) {
		b.testIdx = 0
		b.round++
		if b.round >= b.RoundMax {
			best := 0
			for i, s := range b.scores {
				if s > b.scores[best] {
					best = i
				}
			}
			b.adopt(best)
		}
	}
	b.insertRR(a.Block)

	// Prefetch at the active offset (and multiples up to the degree). The
	// returned slice aliases a reused buffer: the simulator consumes it
	// inside the same Step, before the next OnAccess can overwrite it.
	out := b.buf[:0]
	for i := 1; i <= b.degree; i++ {
		nb := int64(a.Block) + b.active*int64(i)
		if nb > 0 {
			out = append(out, uint64(nb))
		}
	}
	b.buf = out
	return out
}

// adopt installs the winning offset and resets the learning state.
func (b *BestOffset) adopt(idx int) {
	b.active = b.offsets[idx]
	for i := range b.scores {
		b.scores[i] = 0
	}
	b.round = 0
}
