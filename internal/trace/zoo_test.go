package trace

import (
	"testing"
)

// zooScales are the trace lengths every generator invariant is checked at.
var zooScales = []int{10_000, 100_000}

// zooSpecs enumerates the four scenario generators with default parameters.
func zooSpecs() map[string]func(n int) []Record {
	return map[string]func(n int) []Record{
		"chase": PointerChaseSpec{Seed: 11}.Generate,
		"graph": GraphSpec{Seed: 12}.Generate,
		"zipf":  ZipfSpec{Seed: 13}.Generate,
		"phase": PhaseShiftSpec{Seed: 14}.Generate,
	}
}

func TestZooDeterministicBytes(t *testing.T) {
	for name, gen := range zooSpecs() {
		t.Run(name, func(t *testing.T) {
			for _, n := range zooScales {
				a, b := gen(n), gen(n)
				if len(a) != n || len(b) != n {
					t.Fatalf("n=%d: got %d/%d records", n, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("n=%d: record %d differs: %+v vs %+v", n, i, a[i], b[i])
					}
				}
			}
		})
	}
}

func TestZooInstrIDsMonotone(t *testing.T) {
	for name, gen := range zooSpecs() {
		recs := gen(20_000)
		for i := 1; i < len(recs); i++ {
			if recs[i].InstrID <= recs[i-1].InstrID {
				t.Fatalf("%s: InstrID not strictly increasing at %d", name, i)
			}
		}
	}
}

func TestZooFootprintBounds(t *testing.T) {
	type bounded struct {
		gen       func(n int) []Record
		footprint uint64
	}
	cases := map[string]bounded{
		"chase": {PointerChaseSpec{Seed: 11}.Generate, PointerChaseSpec{Seed: 11}.footprintBlocks()},
		"graph": {GraphSpec{Seed: 12}.Generate, GraphSpec{Seed: 12}.footprintBlocks()},
		"zipf":  {ZipfSpec{Seed: 13}.Generate, ZipfSpec{Seed: 13}.footprintBlocks()},
		"phase": {PhaseShiftSpec{Seed: 14}.Generate, PhaseShiftSpec{Seed: 14}.footprintBlocks()},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			for _, n := range zooScales {
				for i, r := range c.gen(n) {
					blk := r.Block() - zooBase>>BlockBits
					if blk >= c.footprint {
						t.Fatalf("n=%d record %d: block %d outside %d-block footprint", n, i, blk, c.footprint)
					}
				}
			}
		})
	}
}

func TestPointerChaseDeltaStructure(t *testing.T) {
	// A permutation cycle over K nodes produces a large recurring delta set:
	// high delta cardinality (adversarial for bounded delta predictors), yet
	// each delta recurs every cycle (learnable temporally). With a single
	// list the footprint is fully covered once n exceeds the node count.
	spec := PointerChaseSpec{Nodes: 1024, Lists: 1, Seed: 5}
	for _, n := range zooScales {
		s := Summarize(spec.Generate(n))
		if s.Addresses != 1024 {
			t.Fatalf("n=%d: %d unique blocks, want full 1024-node coverage", n, s.Addresses)
		}
		// Near-uniform random permutation jumps: delta variety on the order
		// of the node count, far beyond any ±R delta-bitmap range.
		if s.Deltas < 512 {
			t.Fatalf("n=%d: only %d distinct deltas, want >=512", n, s.Deltas)
		}
	}
}

func TestGraphDeltaStructure(t *testing.T) {
	spec := GraphSpec{Nodes: 512, Degree: 4, Seed: 6}
	for _, n := range zooScales {
		s := Summarize(spec.Generate(n))
		// Random-walk hops between scattered payloads: delta cardinality
		// grows with graph size, well beyond strided-app territory.
		if s.Deltas < 256 {
			t.Fatalf("n=%d: only %d distinct deltas", n, s.Deltas)
		}
		if uint64(s.Addresses) > spec.footprintBlocks() {
			t.Fatalf("n=%d: %d blocks exceeds footprint %d", n, s.Addresses, spec.footprintBlocks())
		}
	}
}

func TestZipfSkewStructure(t *testing.T) {
	// Zipfian popularity: the hottest key's value blocks must dominate.
	spec := ZipfSpec{Keys: 4096, ValueBlocks: 1, Seed: 7}
	for _, n := range zooScales {
		counts := map[uint64]int{}
		for _, r := range spec.Generate(n) {
			counts[r.Block()]++
		}
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		if max < n/20 {
			t.Fatalf("n=%d: hottest block only %d/%d accesses; distribution not skewed", n, max, n)
		}
		if len(counts) < 100 {
			t.Fatalf("n=%d: only %d distinct blocks; tail missing", n, len(counts))
		}
	}
}

// modalDelta returns the most frequent successive block delta in a window.
func modalDelta(recs []Record) int64 {
	counts := map[int64]int{}
	for i := 1; i < len(recs); i++ {
		counts[int64(recs[i].Block())-int64(recs[i-1].Block())]++
	}
	var best int64
	bestN := -1
	for d, c := range counts {
		if c > bestN {
			best, bestN = d, c
		}
	}
	return best
}

func TestPhaseShiftPhaseStructure(t *testing.T) {
	// Within each phase the modal delta is the regime's stride; consecutive
	// phases change regime; the cycle has period Regimes.
	spec := PhaseShiftSpec{Pages: 128, PhaseLen: 2048, Regimes: 3, Streams: 1, Seed: 8}
	for _, n := range zooScales {
		recs := spec.Generate(n)
		phases := n / spec.PhaseLen
		for p := 0; p < phases; p++ {
			window := recs[p*spec.PhaseLen : (p+1)*spec.PhaseLen]
			want := spec.Stride(p % spec.Regimes)
			if got := modalDelta(window); got != want {
				t.Fatalf("n=%d phase %d: modal delta %d, want regime stride %d", n, p, got, want)
			}
		}
		if phases >= 2 && spec.Stride(0) == spec.Stride(1) {
			t.Fatal("consecutive regimes share a stride; phase shift is a no-op")
		}
	}
}

func TestPhaseShiftRegimeFootprintsDisjoint(t *testing.T) {
	spec := PhaseShiftSpec{Pages: 64, PhaseLen: 1000, Regimes: 3, Streams: 1, Seed: 9}
	recs := spec.Generate(30_000)
	sliceBlocks := uint64(64) * BlocksPerPage
	for i, r := range recs {
		phase := (i / 1000) % 3
		blk := r.Block() - zooBase>>BlockBits
		if got := int(blk / sliceBlocks); got != phase {
			t.Fatalf("record %d: block in regime slice %d during phase regime %d", i, got, phase)
		}
	}
}

func TestWorkloadRegistry(t *testing.T) {
	ws := Workloads()
	if len(ws) != len(Apps())+4 {
		t.Fatalf("registry has %d entries, want %d", len(ws), len(Apps())+4)
	}
	families := map[string]bool{}
	seen := map[string]bool{}
	for _, w := range ws {
		if seen[w.Name] {
			t.Fatalf("duplicate workload name %q", w.Name)
		}
		seen[w.Name] = true
		families[w.Family] = true
		recs := w.Generate(0, 100)
		if len(recs) != 100 {
			t.Fatalf("%s: generated %d records", w.Name, len(recs))
		}
	}
	for _, f := range []string{"spec", "pointer", "graph", "kv", "phase"} {
		if !families[f] {
			t.Fatalf("family %q missing from registry", f)
		}
	}
	if _, ok := WorkloadByName("zipf"); !ok {
		t.Fatal("WorkloadByName(zipf) failed")
	}
	if _, ok := WorkloadByName("mcf"); !ok {
		t.Fatal("WorkloadByName(mcf) suffix lookup failed")
	}
	if _, ok := WorkloadByName("nope"); ok {
		t.Fatal("unknown workload resolved")
	}
	// Different seeds diversify the stream.
	w, _ := WorkloadByName("chase")
	a, b := w.Generate(1, 200), w.Generate(2, 200)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed parameter does not perturb the workload")
	}
}

// footprintBlocks is the total block footprint of the scenario.
func (s PointerChaseSpec) footprintBlocks() uint64 {
	s = s.withDefaults()
	return uint64(s.Lists) * uint64(s.Nodes) * uint64(s.NodeBlocks)
}

// footprintBlocks is the total block footprint: adjacency region followed by
// the payload region.
func (s GraphSpec) footprintBlocks() uint64 {
	s = s.withDefaults()
	return uint64(s.Nodes) * uint64(s.adjBlocks()+s.PayloadBlocks)
}

// footprintBlocks is the total block footprint of the scenario.
func (s ZipfSpec) footprintBlocks() uint64 {
	s = s.withDefaults()
	return uint64(s.Keys) * uint64(s.ValueBlocks)
}

// footprintBlocks is the total block footprint across every regime slice.
func (s PhaseShiftSpec) footprintBlocks() uint64 {
	s = s.withDefaults()
	return uint64(s.Regimes) * uint64(s.Pages) * BlocksPerPage
}
