package sim

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"dart/internal/trace"
)

// adversary is a prefetcher built to drive every prefetch-admission edge on
// every call: it re-issues its previous call's candidates (still in flight,
// or resident once filled), the block just demanded (resident), and a
// duplicate of a candidate in the same call, and it offers more than
// MaxDegree new blocks, some of which are never demanded, so the prefetch
// queue fills and overflows. Its next-line candidates are demanded while
// still in flight on streaming traces, so late hits happen. The
// never-demanded blocks all map to set 0 of both caches and are offered
// again eight calls later, when many have been evicted, so evicted prefetches
// are admitted again and pollution is counted.
type adversary struct {
	latency int
	n       uint64
	prev    []uint64 // last call's new candidates
	buf     []uint64 // the slice OnAccess returns, reused
}

func (p *adversary) Name() string { return "adversary" }

func (p *adversary) OnAccess(a Access) []uint64 {
	out := append(p.buf[:0], p.prev...)
	for i := uint64(0); p.n >= 8 && i < 8; i++ {
		out = append(out, conflict(p.n-8, i))
	}
	out = append(out, a.Block)
	fresh := len(out)
	for _, d := range []uint64{1, 2, 3, 4, 5, 6, 32} {
		out = append(out, a.Block+d)
	}
	out = append(out, a.Block+1) // duplicate within this call
	p.n++
	for i := uint64(0); i < 8; i++ {
		out = append(out, conflict(p.n, i)) // never demanded
	}
	p.prev = append(p.prev[:0], out[fresh:]...)
	p.buf = out
	return out
}

// conflict is the i-th never-demanded block of call n. Every one maps to set
// 0 of the default LLC (8192 sets) and of the two-level L2 (1024 sets).
func conflict(n, i uint64) uint64 { return 1<<40 + (n*8+i)<<13 }

func (p *adversary) Latency() int      { return p.latency }
func (p *adversary) StorageBytes() int { return 0 }

// pendingGolden is one recorded run of the adversary: the configuration, the
// trace, and the exact Result, plus an FNV-64a digest of every Step report
// (hit, late, stall bits, issued blocks) and of every prefetch outcome's
// block and kind (0 useful, 1 late) in order.
type pendingGolden struct {
	cfg, trace    string
	queue         int
	steps, fbacks uint64
	want          Result
}

// pendingGoldens were recorded at commit b6b3bf7, whose simulator also kept a
// block -> index map of the pending queue; the feedback digests were
// re-recorded when they stopped hashing the outcome's cycle.
var pendingGoldens = []pendingGolden{
	{"default", "seq", 4, 0xe3ea30ebebfd6c69, 0x617d5768060bf5e4, Result{Prefetcher: "adversary", Instructions: 11997, Cycles: 150929, IPC: 0.0794877061399731, Accesses: 3000, L2Hits: 0, DemandHits: 0, DemandMisses: 1, LateCovered: 2999, PrefetchIssued: 3003, PrefetchUseful: 2999, PrefetchDropped: 86926, Pollution: 0, L2Pollution: 0}},
	{"default", "mixed", 4, 0xb48d62a99c6a8573, 0x19003b49ecb82d1c, Result{Prefetcher: "adversary", Instructions: 61361, Cycles: 408290.25, IPC: 0.15028769361991867, Accesses: 3000, L2Hits: 0, DemandHits: 308, DemandMisses: 2053, LateCovered: 639, PrefetchIssued: 3541, PrefetchUseful: 907, PrefetchDropped: 104073, Pollution: 4, L2Pollution: 0}},
	{"default", "seq", 64, 0xc445c93747bf70df, 0x94101ff84dabdc55, Result{Prefetcher: "adversary", Instructions: 11997, Cycles: 65424, IPC: 0.18337307410124726, Accesses: 3000, L2Hits: 0, DemandHits: 1331, DemandMisses: 1, LateCovered: 1668, PrefetchIssued: 13184, PrefetchUseful: 2999, PrefetchDropped: 75943, Pollution: 10090, L2Pollution: 0}},
	{"default", "mixed", 64, 0x307b2d480f8946a5, 0x64561a84aa039140, Result{Prefetcher: "adversary", Instructions: 61361, Cycles: 348980.5, IPC: 0.1758293085143726, Accesses: 3000, L2Hits: 0, DemandHits: 1081, DemandMisses: 293, LateCovered: 1626, PrefetchIssued: 20578, PrefetchUseful: 2667, PrefetchDropped: 80672, Pollution: 12914, L2Pollution: 0}},
	{"two-level+pf-l2", "seq", 4, 0xe3ea30ebebfd6c69, 0x617d5768060bf5e4, Result{Prefetcher: "adversary", Instructions: 11997, Cycles: 150929, IPC: 0.0794877061399731, Accesses: 3000, L2Hits: 0, DemandHits: 0, DemandMisses: 1, LateCovered: 2999, PrefetchIssued: 3003, PrefetchUseful: 2999, PrefetchDropped: 86926, Pollution: 0, L2Pollution: 0}},
	{"two-level+pf-l2", "mixed", 4, 0xd5d2fc797c4673ad, 0xf5702bc28100c0d4, Result{Prefetcher: "adversary", Instructions: 61361, Cycles: 413221.25, IPC: 0.14849429936141958, Accesses: 3000, L2Hits: 305, DemandHits: 0, DemandMisses: 2076, LateCovered: 619, PrefetchIssued: 3510, PrefetchUseful: 884, PrefetchDropped: 94300, Pollution: 0, L2Pollution: 11}},
	{"two-level+pf-l2", "seq", 64, 0x750dabc157a08c79, 0xba8a3456b3e8df6b, Result{Prefetcher: "adversary", Instructions: 11997, Cycles: 89379, IPC: 0.13422616050750177, Accesses: 3000, L2Hits: 1410, DemandHits: 2, DemandMisses: 48, LateCovered: 1540, PrefetchIssued: 12636, PrefetchUseful: 2952, PrefetchDropped: 42416, Pollution: 9594, L2Pollution: 9604}},
	{"two-level+pf-l2", "mixed", 64, 0xea4d5e1729691c41, 0xd4e20064e33f11b4, Result{Prefetcher: "adversary", Instructions: 61361, Cycles: 372467.5, IPC: 0.16474189023203367, Accesses: 3000, L2Hits: 824, DemandHits: 1, DemandMisses: 544, LateCovered: 1631, PrefetchIssued: 17407, PrefetchUseful: 2416, PrefetchDropped: 61583, Pollution: 10108, L2Pollution: 10347}},
}

// pendingTraces and pendingConfigs are the inputs pendingGoldens name.
func pendingTraces() map[string][]trace.Record {
	return map[string][]trace.Record{
		"seq":   seqRecords(3000, 4),
		"mixed": testTrace(3, 3000),
	}
}

var pendingConfigs = map[string]func() Config{
	"default": DefaultConfig,
	"two-level+pf-l2": func() Config {
		c := TwoLevelConfig()
		c.PrefetchFillL2 = true
		return c
	},
}

// runAdversary replays recs with a fresh adversary and returns the Result,
// the Step and outcome digests, and whether the pending queue ever held
// PrefetchQueue fills.
func runAdversary(recs []trace.Record, cfg Config) (res Result, steps, fbacks uint64, fullQueue bool) {
	s := NewSim(&adversary{latency: 30}, cfg)
	h, fb := fnv.New64a(), fnv.New64a()
	var b [8]byte
	put := func(h hash.Hash64, v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	word := func(v uint64) { put(h, v) }
	for _, r := range recs {
		st := s.Step(r)
		if st.Useful || st.Late {
			put(fb, r.Block())
			if st.Late {
				put(fb, 1)
			} else {
				put(fb, 0)
			}
		}
		flags := uint64(0)
		if st.Hit {
			flags |= 1
		}
		if st.Late {
			flags |= 2
		}
		word(flags)
		word(math.Float64bits(st.Stall))
		word(uint64(len(st.Prefetches)))
		for _, pb := range st.Prefetches {
			word(pb)
		}
		fullQueue = fullQueue || len(s.pending) == cfg.PrefetchQueue
	}
	return s.Result(), h.Sum64(), fb.Sum64(), fullQueue
}

// TestFillsInstallInIssueOrder: fills that complete by the same cycle
// install in the order they were issued, so the first is the first LRU
// victim.
func TestFillsInstallInIssueOrder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LLCBlocks, cfg.LLCWays = 2, 2 // one set of two ways
	s := NewSim(&nextLine{degree: 3}, cfg)
	s.Step(trace.Record{InstrID: 1, Addr: 100 << trace.BlockBits})
	s.materialize(1e9) // the fills of 101, 102 and 103 have all completed
	for blk, want := range map[uint64]bool{100: false, 101: false, 102: true, 103: true} {
		if hit, _ := s.llc.Lookup(blk, false); hit != want {
			t.Errorf("block %d resident = %v, want %v", blk, hit, want)
		}
	}
}

// TestPendingQueueGolden pins the simulator's in-flight bookkeeping — fill
// order, drops at MaxDegree and at a full PrefetchQueue, late hits and the
// outcomes Step reports — on one-level and two-level machines with a small and
// the default prefetch queue. Each run must also reach every edge it pins:
// late hits happen and the queue fills to capacity.
func TestPendingQueueGolden(t *testing.T) {
	traces := pendingTraces()
	for _, g := range pendingGoldens {
		cfg := pendingConfigs[g.cfg]()
		cfg.PrefetchQueue = g.queue
		got, steps, fbacks, fullQueue := runAdversary(traces[g.trace], cfg)
		name := g.cfg + "/" + g.trace
		if got != g.want || steps != g.steps || fbacks != g.fbacks {
			t.Errorf("%s queue=%d diverged from its recording:\n got %+v steps %#x feedback %#x\nwant %+v steps %#x feedback %#x",
				name, g.queue, got, steps, fbacks, g.want, g.steps, g.fbacks)
		}
		if got.LateCovered == 0 || got.PrefetchDropped == 0 || !fullQueue {
			t.Errorf("%s queue=%d: an edge went unexercised (late %d, dropped %d, queue filled %v)",
				name, g.queue, got.LateCovered, got.PrefetchDropped, fullQueue)
		}
	}
}
