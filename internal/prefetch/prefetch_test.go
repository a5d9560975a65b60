package prefetch

import (
	"testing"

	"dart/internal/dataprep"
	"dart/internal/mat"
	"dart/internal/sim"
	"dart/internal/trace"
)

func strideAccesses(n int, stride int64) []sim.Access {
	out := make([]sim.Access, n)
	b := int64(1000)
	for i := range out {
		out[i] = sim.Access{InstrID: uint64(i * 20), PC: 0x400000, Block: uint64(b)}
		b += stride
	}
	return out
}

func TestBOLearnsStride(t *testing.T) {
	bo := NewBestOffset(2)
	for _, a := range strideAccesses(3000, 3) {
		bo.OnAccess(a)
	}
	if got := bo.active; got != 3 {
		t.Fatalf("BO adopted offset %d, want 3", got)
	}
}

func TestBOLearnsNegativeStride(t *testing.T) {
	bo := NewBestOffset(1)
	accs := make([]sim.Access, 3000)
	b := int64(1 << 20)
	for i := range accs {
		accs[i] = sim.Access{Block: uint64(b)}
		b -= 2
	}
	for _, a := range accs {
		bo.OnAccess(a)
	}
	if got := bo.active; got != -2 {
		t.Fatalf("BO adopted offset %d, want -2", got)
	}
}

func TestBOPrefetchesActiveOffset(t *testing.T) {
	bo := NewBestOffset(2)
	for _, a := range strideAccesses(3000, 4) {
		bo.OnAccess(a)
	}
	reqs := bo.OnAccess(sim.Access{Block: 5000})
	if len(reqs) != 2 || reqs[0] != 5004 || reqs[1] != 5008 {
		t.Fatalf("BO prefetches %v, want [5004 5008]", reqs)
	}
}

func TestBOInterfaceValues(t *testing.T) {
	bo := NewBestOffset(1)
	if bo.Name() != "BO" || bo.Latency() != 60 || bo.StorageBytes() != 4<<10 {
		t.Fatalf("BO metadata wrong: %s %d %d", bo.Name(), bo.Latency(), bo.StorageBytes())
	}
}

func TestISBLearnsTemporalStream(t *testing.T) {
	isb := NewISB(2)
	seq := []uint64{100, 7, 9123, 42, 100, 7, 9123, 42}
	var last []uint64
	for i, b := range seq {
		last = isb.OnAccess(sim.Access{InstrID: uint64(i), PC: 0x400000, Block: b})
	}
	_ = last
	// After two traversals, accessing 100 should prefetch 7 (and 9123).
	reqs := isb.OnAccess(sim.Access{PC: 0x400000, Block: 100})
	if len(reqs) == 0 || reqs[0] != 7 {
		t.Fatalf("ISB prefetches %v, want [7 9123]", reqs)
	}
	if len(reqs) > 1 && reqs[1] != 9123 {
		t.Fatalf("ISB second prefetch %v", reqs)
	}
}

func TestISBIsolatesPCs(t *testing.T) {
	isb := NewISB(1)
	// PC A: 1 -> 2; PC B: 50 -> 60, interleaved.
	seq := []struct{ pc, b uint64 }{
		{1, 1}, {2, 50}, {1, 2}, {2, 60},
		{1, 1}, {2, 50},
	}
	var reqs []uint64
	for i, s := range seq {
		reqs = isb.OnAccess(sim.Access{InstrID: uint64(i), PC: s.pc, Block: s.b})
	}
	// Last access: PC 2 at block 50 should prefetch 60, not 2.
	if len(reqs) != 1 || reqs[0] != 60 {
		t.Fatalf("ISB cross-PC contamination: %v", reqs)
	}
}

func TestISBMapBounded(t *testing.T) {
	isb := NewISB(1)
	for i := 0; i < 100000; i++ {
		isb.OnAccess(sim.Access{PC: uint64(i % 7), Block: uint64(i * 977)})
	}
	if len(isb.ps) > isb.maxMap+1 {
		t.Fatalf("ISB mapping grew to %d entries", len(isb.ps))
	}
}

// perfectNextDelta predicts delta +1 with certainty.
type perfectNextDelta struct{ dout int }

func (p perfectNextDelta) Logits(x *mat.Matrix) []float64 {
	out := make([]float64, p.dout)
	for i := range out {
		out[i] = -5
	}
	cfg := dataprep.Default()
	out[cfg.DeltaToBit(1)] = 5
	return out
}

func TestNNPrefetcherEmitsDeltaPrefetch(t *testing.T) {
	cfg := dataprep.Default()
	p := NewNNPrefetcher("test", perfectNextDelta{cfg.OutputDim()}, cfg, 10, 1000, 4)
	var reqs []uint64
	for i := 0; i < cfg.History+1; i++ {
		reqs = p.OnAccess(sim.Access{PC: 1, Block: uint64(100 + i)})
	}
	if len(reqs) != 1 || reqs[0] != uint64(100+cfg.History)+1 {
		t.Fatalf("NN prefetcher reqs %v", reqs)
	}
}

func TestNNPrefetcherWarmup(t *testing.T) {
	cfg := dataprep.Default()
	p := NewNNPrefetcher("test", perfectNextDelta{cfg.OutputDim()}, cfg, 0, 0, 4)
	for i := 0; i < cfg.History-1; i++ {
		if reqs := p.OnAccess(sim.Access{Block: uint64(i)}); reqs != nil {
			t.Fatal("prefetched before history filled")
		}
	}
}

// TestNNPrefetcherBuildInputNoAlloc: a warm history ring allocates nothing
// over 8 calls, and the input it builds holds the last History accesses
// oldest first.
func TestNNPrefetcherBuildInputNoAlloc(t *testing.T) {
	cfg := dataprep.Default()
	p := NewNNPrefetcher("test", perfectNextDelta{cfg.OutputDim()}, cfg, 0, 0, 4)
	acc := strideAccesses(64, 3)
	i := 0
	next := func() (*mat.Matrix, bool) {
		x, ok := p.BuildInput(acc[i])
		i++
		return x, ok
	}
	for i < cfg.History {
		next()
	}
	if n := testing.AllocsPerRun(4, func() {
		for k := 0; k < 8; k++ {
			next()
		}
	}); n != 0 {
		t.Fatalf("8 warm BuildInput calls allocate %v times", n)
	}
	x, ok := next()
	want := make([]float64, cfg.InputDim())
	for r, a := range acc[i-cfg.History : i] {
		cfg.InputRow(a.Block, a.PC, want)
		for j, v := range x.Row(r) {
			if !ok || v != want[j] {
				t.Fatalf("row %d col %d = %v, want %v", r, j, v, want[j])
			}
		}
	}
}

func TestNNPrefetcherDegreeCap(t *testing.T) {
	cfg := dataprep.Default()
	all := allPositive{cfg.OutputDim()}
	p := NewNNPrefetcher("test", all, cfg, 0, 0, 3)
	var reqs []uint64
	for i := 0; i < cfg.History; i++ {
		reqs = p.OnAccess(sim.Access{Block: uint64(1000 + i)})
	}
	if len(reqs) != 3 {
		t.Fatalf("degree cap broken: %d prefetches", len(reqs))
	}
}

type allPositive struct{ dout int }

func (p allPositive) Logits(x *mat.Matrix) []float64 {
	out := make([]float64, p.dout)
	for i := range out {
		out[i] = float64(i) + 1
	}
	return out
}

func TestBORecentRequestsBounded(t *testing.T) {
	bo := NewBestOffset(1)
	for i := 0; i < 100000; i++ {
		bo.OnAccess(sim.Access{Block: uint64(i * 31)})
	}
	if len(bo.rrSet) > len(bo.rr) {
		t.Fatalf("RR set grew to %d entries for a %d-entry ring", len(bo.rrSet), len(bo.rr))
	}
}

func TestBOScoreResetOnAdoption(t *testing.T) {
	bo := NewBestOffset(1)
	for _, a := range strideAccesses(3000, 5) {
		bo.OnAccess(a)
	}
	if bo.active != 5 {
		t.Fatalf("offset %d, want 5", bo.active)
	}
	for _, s := range bo.scores {
		if s >= bo.ScoreMax {
			t.Fatal("scores not reset after adoption")
		}
	}
}

func TestStrideLearnsPerPCStride(t *testing.T) {
	s := NewStride(2)
	var reqs []uint64
	// PC 1 strides by +3; PC 2 strides by -5; interleaved.
	b1, b2 := int64(1000), int64(1<<20)
	for i := 0; i < 10; i++ {
		// OnAccess's return aliases a buffer reused by the next call, so
		// copy before interleaving PC 2's accesses.
		reqs = append(reqs[:0], s.OnAccess(sim.Access{PC: 1, Block: uint64(b1)})...)
		b1 += 3
		s.OnAccess(sim.Access{PC: 2, Block: uint64(b2)})
		b2 -= 5
	}
	// Last PC-1 access at block b1-3; expect prefetches at +3 and +6.
	if len(reqs) != 2 || reqs[0] != uint64(b1-3+3) || reqs[1] != uint64(b1-3+6) {
		t.Fatalf("stride prefetches %v", reqs)
	}
}

func TestStrideNoPrefetchBeforeConfirmation(t *testing.T) {
	s := NewStride(1)
	if r := s.OnAccess(sim.Access{PC: 1, Block: 100}); r != nil {
		t.Fatal("prefetched on first access")
	}
	if r := s.OnAccess(sim.Access{PC: 1, Block: 104}); len(r) != 0 {
		t.Fatal("prefetched on unconfirmed stride")
	}
}

func TestStrideTableBounded(t *testing.T) {
	s := NewStride(1)
	for i := 0; i < 10000; i++ {
		s.OnAccess(sim.Access{PC: uint64(i), Block: uint64(i)})
	}
	if len(s.table) > s.maxPCs {
		t.Fatalf("stride table grew to %d", len(s.table))
	}
}

func TestStrideImprovesIPCOnStridedTrace(t *testing.T) {
	spec := trace.AppSpec{
		Name: "strided", Pages: 2000, Streams: 4,
		Strides: []int64{3}, Seed: 13,
	}
	recs := trace.Generate(spec, 20000)
	cfg := sim.DefaultConfig()
	base := sim.Run(recs, sim.NoPrefetcher{}, cfg)
	st := sim.Run(recs, NewStride(4), cfg)
	if imp := sim.IPCImprovement(base, st); imp <= 0 {
		t.Fatalf("stride prefetcher gave no IPC improvement: %v", imp)
	}
}

func TestBOImprovesIPCOnStridedTrace(t *testing.T) {
	spec := trace.AppSpec{
		Name: "strided", Pages: 2000, Streams: 4,
		Strides: []int64{2}, Seed: 11,
	}
	recs := trace.Generate(spec, 20000)
	cfg := sim.DefaultConfig()
	base := sim.Run(recs, sim.NoPrefetcher{}, cfg)
	bo := sim.Run(recs, NewBestOffset(4), cfg)
	if imp := sim.IPCImprovement(base, bo); imp <= 0 {
		t.Fatalf("BO gave no IPC improvement on strided trace: %v", imp)
	}
}

func TestISBImprovesIPCOnChaseTrace(t *testing.T) {
	// A repeating pointer chain larger than the LLC: ISB learns the chain on
	// the first traversal and prefetches it on later ones.
	spec := trace.AppSpec{
		Name: "chase", Pages: 100, Streams: 1,
		ChaseFrac: 0.95, Strides: []int64{1}, Seed: 12,
	}
	recs := trace.Generate(spec, 30000)
	cfg := sim.DefaultConfig()
	cfg.LLCBlocks = 1024 // shrink the LLC below the chain footprint
	cfg.LLCWays = 16
	base := sim.Run(recs, sim.NoPrefetcher{}, cfg)
	isb := sim.Run(recs, NewISB(4), cfg)
	if imp := sim.IPCImprovement(base, isb); imp <= 0 {
		t.Fatalf("ISB gave no IPC improvement on pointer-chase trace: %v", imp)
	}
}
