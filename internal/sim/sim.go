package sim

import (
	"fmt"

	"dart/internal/trace"
)

// Access is the event a prefetcher observes at the LLC.
type Access struct {
	Cycle   uint64
	InstrID uint64
	PC      uint64
	Block   uint64
	Hit     bool
}

// Prefetcher is the LLC prefetcher interface. OnAccess observes a demand
// access and returns block addresses to prefetch; the simulator delays their
// issue by Latency() cycles, modelling predictor inference time — the
// quantity DART minimises.
type Prefetcher interface {
	Name() string
	OnAccess(a Access) []uint64
	Latency() int
	StorageBytes() int
}

// FeedbackKind classifies a prefetch-outcome event.
type FeedbackKind int

const (
	// FeedbackUseful: a demand access hit a line a prefetch had already
	// installed — the prediction was fully timely.
	FeedbackUseful FeedbackKind = iota
	// FeedbackLate: a demand access arrived while the prefetch fill was
	// still in flight — the prediction was correct but late.
	FeedbackLate
)

// Feedback is the outcome signal the simulator reports back to prefetchers
// that opt in via FeedbackPrefetcher: which block the event concerns, how the
// prefetch fared, and the cycle it happened. Online predictors use it to
// update their training units while serving (accuracy-driven throttling,
// table refresh, reinforcement of confirmed deltas).
type Feedback struct {
	Block uint64
	Kind  FeedbackKind
	Cycle uint64
}

// FeedbackPrefetcher is implemented by prefetchers that want prefetch-outcome
// feedback. The simulator calls OnFeedback synchronously, immediately before
// the OnAccess that observed the outcome, so an online learner sees the
// signal in trace order.
type FeedbackPrefetcher interface {
	Prefetcher
	OnFeedback(Feedback)
}

// NoPrefetcher is the baseline.
type NoPrefetcher struct{}

// Name identifies the baseline.
func (NoPrefetcher) Name() string { return "none" }

// OnAccess never prefetches.
func (NoPrefetcher) OnAccess(Access) []uint64 { return nil }

// Latency is zero.
func (NoPrefetcher) Latency() int { return 0 }

// StorageBytes is zero.
func (NoPrefetcher) StorageBytes() int { return 0 }

// Config mirrors the relevant rows of Table III.
type Config struct {
	CoreWidth     int // retire width (4-wide OoO)
	ROBSize       int // reorder buffer entries
	LLCBlocks     int // LLC capacity in 64-byte blocks
	LLCWays       int
	LLCHitLatency int // cycles from core to LLC data (L1+L2 probes included)
	LLCMSHRs      int // outstanding demand misses
	DRAMLatency   int // cycles for a DRAM fill
	DRAMInterval  int // minimum cycles between DRAM fills (bandwidth)
	PrefetchQueue int // pending prefetch capacity
	MaxDegree     int // prefetches accepted per trigger

	// Two-level hierarchy. L2Blocks == 0 (the zero value) disables the
	// private L2 entirely and the simulator is bit-identical to the
	// original single-level LLC model.
	L2Blocks       int // private L2 capacity in 64-byte blocks; 0 = no L2
	L2Ways         int
	L2HitLatency   int  // cycles from core to L2 data
	L2Inclusive    bool // LLC evictions back-invalidate the L2
	PrefetchFillL2 bool // prefetch fills install into the L2 as well
}

// DefaultConfig returns the Table III machine: 4 GHz 4-wide core with a
// 256-entry ROB, 8 MiB 16-way LLC with 64 MSHRs, 20-cycle LLC latency and
// a 12.5 ns (≈50-cycle) DRAM access time plus queueing, modelled as 200
// cycles total load-to-use and a bandwidth-limited fill interval.
func DefaultConfig() Config {
	return Config{
		CoreWidth:     4,
		ROBSize:       256,
		LLCBlocks:     8 << 20 >> 6, // 8 MiB of 64 B lines
		LLCWays:       16,
		LLCHitLatency: 35,
		LLCMSHRs:      64,
		DRAMLatency:   200,
		DRAMInterval:  4,
		PrefetchQueue: 64,
		MaxDegree:     8,
	}
}

// TwoLevelConfig returns the Table III machine with a 512 KiB 8-way
// inclusive private L2 (14-cycle hit) in front of the shared LLC. Prefetches
// fill only the LLC, the paper's prefetch target level.
func TwoLevelConfig() Config {
	c := DefaultConfig()
	c.L2Blocks = 512 << 10 >> 6 // 512 KiB of 64 B lines
	c.L2Ways = 8
	c.L2HitLatency = 14
	c.L2Inclusive = true
	return c
}

// Validate reports configuration errors, including any cache geometry
// NewCache would panic on, so a config from outside the process (a served
// session's open) is checked before it builds a simulator.
func (c Config) Validate() error {
	if c.CoreWidth <= 0 || c.ROBSize <= 0 || c.LLCBlocks <= 0 || c.LLCWays <= 0 ||
		c.LLCHitLatency < 0 || c.LLCMSHRs <= 0 || c.DRAMLatency <= 0 || c.PrefetchQueue <= 0 {
		return fmt.Errorf("sim: invalid config %+v", c)
	}
	if c.L2Blocks < 0 || (c.L2Blocks > 0 && (c.L2Ways <= 0 || c.L2HitLatency < 0)) {
		return fmt.Errorf("sim: invalid L2 config %+v", c)
	}
	if err := cacheGeometry(c.LLCBlocks, c.LLCWays); err != nil {
		return fmt.Errorf("sim: LLC: %v", err)
	}
	if c.L2Blocks > 0 {
		if err := cacheGeometry(c.L2Blocks, c.L2Ways); err != nil {
			return fmt.Errorf("sim: L2: %v", err)
		}
	}
	return nil
}

// Result summarises one simulation run.
type Result struct {
	Prefetcher   string
	Instructions uint64
	Cycles       float64
	IPC          float64

	Accesses        int // demand accesses (every trace record)
	L2Hits          int // demand hits in the private L2 (two-level mode only)
	DemandHits      int // demand hits in the LLC
	DemandMisses    int // full-latency misses (no prefetch help)
	LateCovered     int // demand hit a pending prefetch fill (partial benefit)
	PrefetchIssued  int
	PrefetchUseful  int // prefetched lines touched by demand (incl. late)
	PrefetchDropped int
	Pollution       int // unused prefetched lines evicted from the LLC
	L2Pollution     int // unused prefetched lines evicted/invalidated in the L2
}

// Accuracy is useful / issued prefetches.
func (r Result) Accuracy() float64 {
	if r.PrefetchIssued == 0 {
		return 0
	}
	return float64(r.PrefetchUseful) / float64(r.PrefetchIssued)
}

// Coverage computes the fraction of baseline misses removed by prefetching.
func Coverage(base, pf Result) float64 {
	if base.DemandMisses == 0 {
		return 0
	}
	cov := 1 - float64(pf.DemandMisses)/float64(base.DemandMisses)
	if cov < 0 {
		return 0
	}
	return cov
}

// IPCImprovement is the relative IPC gain of pf over base.
func IPCImprovement(base, pf Result) float64 {
	if base.IPC == 0 {
		return 0
	}
	return pf.IPC/base.IPC - 1
}

// pendingFill is an in-flight cache fill.
type pendingFill struct {
	block      uint64
	ready      uint64 // completion cycle
	prefetched bool
}

// Step reports what one simulated access did, for callers (the serving
// engine, online trainers) that need per-access visibility rather than the
// aggregate Result.
type Step struct {
	Hit   bool    // demand hit (line was resident)
	Late  bool    // covered by an in-flight prefetch
	Stall float64 // cycles the core stalled on this access

	// Prefetches lists the block addresses issued this step (post
	// admission). It aliases a buffer owned by the Sim and reused on the
	// next Step — callers that need the blocks afterwards must copy them.
	Prefetches []uint64
}

// Sim is the incremental form of Run: a long-lived simulator that consumes
// one trace record at a time. The serving engine holds one Sim per session
// and feeds it accesses as they arrive over the wire; Run is a loop over
// Step, so a stepped session is bit-identical to an offline replay of the
// same records.
type Sim struct {
	cfg Config
	pf  Prefetcher
	fb  FeedbackPrefetcher // non-nil when pf wants outcome feedback

	llc      *Cache
	l2       *Cache // private L2 in front of the LLC; nil in single-level mode
	res      Result
	hide     float64
	cycle    float64
	dramFree float64 // next cycle DRAM can start a fill (bandwidth)

	started               bool
	firstInstr, lastInstr uint64
	prevInstr             uint64

	pending  []pendingFill
	inFlight map[uint64]int // block -> index+1 in pending
	pfBuf    []uint64       // backing store for Step.Prefetches, reused every Step
}

// NewSim builds an incremental simulator. It panics on an invalid config,
// matching Run.
func NewSim(pf Prefetcher, cfg Config) *Sim {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &Sim{
		cfg:      cfg,
		pf:       pf,
		llc:      NewCache(cfg.LLCBlocks, cfg.LLCWays),
		res:      Result{Prefetcher: pf.Name()},
		hide:     float64(cfg.ROBSize) / float64(cfg.CoreWidth),
		pending:  make([]pendingFill, 0, cfg.PrefetchQueue+cfg.LLCMSHRs),
		inFlight: make(map[uint64]int, cfg.PrefetchQueue+cfg.LLCMSHRs),
	}
	s.fb, _ = pf.(FeedbackPrefetcher)
	if cfg.L2Blocks > 0 {
		s.l2 = NewCache(cfg.L2Blocks, cfg.L2Ways)
	}
	return s
}

// fillLLC installs a block into the LLC, back-invalidating the L2 copy of
// the victim when the hierarchy is inclusive. In single-level mode it is
// exactly the original Insert.
func (s *Sim) fillLLC(block uint64, prefetched bool) {
	if s.l2 != nil && s.cfg.L2Inclusive {
		if victim, evicted, _ := s.llc.InsertEvict(block, prefetched); evicted {
			s.l2.Invalidate(victim)
		}
		return
	}
	s.llc.Insert(block, prefetched)
}

// fillL2 installs a block into the private L2 (no-op in single-level mode).
// L2 victims fall silently back to the LLC, which still holds them.
func (s *Sim) fillL2(block uint64, prefetched bool) {
	if s.l2 != nil {
		s.l2.Insert(block, prefetched)
	}
}

// materialize installs every fill completed by `now` into the LLC.
func (s *Sim) materialize(now float64) {
	w := 0
	for _, p := range s.pending {
		if float64(p.ready) <= now {
			s.fillLLC(p.block, p.prefetched)
			if !p.prefetched || s.cfg.PrefetchFillL2 {
				s.fillL2(p.block, p.prefetched)
			}
			delete(s.inFlight, p.block)
		} else {
			s.pending[w] = p
			w++
		}
	}
	s.pending = s.pending[:w]
	for i, p := range s.pending {
		s.inFlight[p.block] = i + 1
	}
}

func (s *Sim) dramFill(start float64) float64 {
	if start < s.dramFree {
		start = s.dramFree
	}
	s.dramFree = start + float64(s.cfg.DRAMInterval)
	return start + float64(s.cfg.DRAMLatency)
}

// Step advances the simulation by one LLC access.
func (s *Sim) Step(r trace.Record) Step {
	cfg := s.cfg
	if !s.started {
		s.started = true
		s.firstInstr = r.InstrID
		s.prevInstr = r.InstrID
	}
	// Core makes progress on the instructions between LLC accesses.
	di := r.InstrID - s.prevInstr
	s.prevInstr = r.InstrID
	s.lastInstr = r.InstrID
	s.cycle += float64(di) / float64(cfg.CoreWidth)
	s.materialize(s.cycle)

	block := r.Block()
	s.res.Accesses++
	var info Step
	var stall float64
	// Private L2 in front of the LLC: an L2 hit is served locally — the
	// LLC, its LRU state, and the prefetcher never see the access.
	if s.l2 != nil {
		if l2hit, l2first := s.l2.Lookup(block, true); l2hit {
			s.res.L2Hits++
			if l2first {
				// First demand touch of a line a prefetch placed in the L2
				// (PrefetchFillL2): the prefetch was useful even though the
				// LLC never sees the hit. Mark the LLC copy used so it is
				// not later miscounted as pollution.
				s.res.PrefetchUseful++
				s.llc.MarkUsed(block)
				if s.fb != nil {
					s.fb.OnFeedback(Feedback{Block: block, Kind: FeedbackUseful, Cycle: uint64(s.cycle)})
				}
			}
			if lat := float64(cfg.L2HitLatency); lat > s.hide {
				stall = lat - s.hide
			}
			s.cycle += stall
			info.Hit = true
			info.Stall = stall
			return info
		}
	}
	hit, firstUse := s.llc.Lookup(block, true)
	switch {
	case hit:
		s.res.DemandHits++
		if firstUse {
			s.res.PrefetchUseful++
			if s.fb != nil {
				s.fb.OnFeedback(Feedback{Block: block, Kind: FeedbackUseful, Cycle: uint64(s.cycle)})
			}
		}
		lat := float64(cfg.LLCHitLatency)
		if lat > s.hide {
			stall = lat - s.hide
		}
		s.fillL2(block, false) // data returns through the private L2
	case s.inFlight[block] != 0:
		// A fill (usually a prefetch) is already on the way: pay the
		// remaining latency only.
		p := s.pending[s.inFlight[block]-1]
		remain := float64(p.ready) - s.cycle
		if remain < 0 {
			remain = 0
		}
		if p.prefetched {
			s.res.LateCovered++
			s.res.PrefetchUseful++
			info.Late = true
			if s.fb != nil {
				s.fb.OnFeedback(Feedback{Block: block, Kind: FeedbackLate, Cycle: uint64(s.cycle)})
			}
		}
		lat := remain + float64(cfg.LLCHitLatency)
		if lat > s.hide {
			stall = lat - s.hide
		}
		// Materialize it now as a demand line.
		s.fillLLC(block, false)
		s.fillL2(block, false)
		idx := s.inFlight[block] - 1
		s.pending = append(s.pending[:idx], s.pending[idx+1:]...)
		delete(s.inFlight, block)
		for i, pp := range s.pending {
			s.inFlight[pp.block] = i + 1
		}
	default:
		s.res.DemandMisses++
		// Demand fills are prioritised by the memory controller: they
		// pay the DRAM latency but are not queued behind prefetch fills.
		ready := s.cycle + float64(cfg.DRAMLatency)
		lat := ready - s.cycle + float64(cfg.LLCHitLatency)
		if lat > s.hide {
			stall = lat - s.hide
		}
		s.fillLLC(block, false)
		s.fillL2(block, false)
	}
	s.cycle += stall
	info.Hit = hit
	info.Stall = stall

	// Prefetcher observes the demand access and may issue requests.
	reqs := s.pf.OnAccess(Access{
		Cycle:   uint64(s.cycle),
		InstrID: r.InstrID,
		PC:      r.PC,
		Block:   block,
		Hit:     hit,
	})
	issueAt := s.cycle + float64(s.pf.Latency())
	degree := 0
	s.pfBuf = s.pfBuf[:0]
	for _, pb := range reqs {
		if degree >= cfg.MaxDegree {
			s.res.PrefetchDropped++
			continue
		}
		if h, _ := s.llc.Lookup(pb, false); h || s.inFlight[pb] != 0 {
			continue // already resident or in flight
		}
		if len(s.pending) >= cfg.PrefetchQueue {
			s.res.PrefetchDropped++
			continue
		}
		ready := s.dramFill(issueAt)
		s.pending = append(s.pending, pendingFill{block: pb, ready: uint64(ready), prefetched: true})
		s.inFlight[pb] = len(s.pending)
		s.res.PrefetchIssued++
		degree++
		s.pfBuf = append(s.pfBuf, pb)
	}
	if len(s.pfBuf) > 0 {
		info.Prefetches = s.pfBuf
	}
	return info
}

// Result snapshots the aggregate statistics so far. It derives the
// instruction count, pollution, and IPC from the current state, so it can be
// called mid-stream (the serving engine's stats endpoint) as well as at the
// end of a trace; after the final Step it equals what Run returns.
func (s *Sim) Result() Result {
	res := s.res
	res.Pollution = s.llc.EvictedUnusedPrefetches
	if s.l2 != nil {
		res.L2Pollution = s.l2.EvictedUnusedPrefetches
	}
	if s.started {
		res.Instructions = s.lastInstr - s.firstInstr + 1
	}
	res.Cycles = s.cycle
	if s.cycle > 0 {
		res.IPC = float64(res.Instructions) / s.cycle
	}
	return res
}

// Run simulates the trace with the given prefetcher. It is a loop over
// Sim.Step, so offline replay and incremental (served) execution of the same
// records produce bit-identical results.
func Run(recs []trace.Record, pf Prefetcher, cfg Config) Result {
	s := NewSim(pf, cfg)
	for _, r := range recs {
		s.Step(r)
	}
	return s.Result()
}
