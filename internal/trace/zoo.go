package trace

import "math/rand"

// zooBase is the footprint base address, shared with Generate so zoo and
// SPEC-like traces occupy the same address range.
const zooBase = uint64(0x10000000)

// instrGap returns a random retire-gap helper bound to one rng.
func instrGap(rng *rand.Rand, perAccess int) func() uint64 {
	if perAccess <= 0 {
		perAccess = 20
	}
	return func() uint64 { return uint64(1 + rng.Intn(2*perAccess)) }
}

// PointerChaseSpec is the linked-list traversal scenario: one or more
// independent lists, each a fixed random permutation cycle over its nodes.
// Successive node hops produce a large but *recurring* set of deltas — far
// outside any bounded delta-bitmap range, but perfectly learnable by
// temporal prefetchers (ISB) — the canonical adversary for spatial/delta
// predictors and the friend of temporal ones.
type PointerChaseSpec struct {
	Name           string
	Nodes          int // nodes per list (default 4096)
	NodeBlocks     int // sequential blocks touched per node visit (default 1)
	Lists          int // independent lists, each in its own region (default 1)
	StickRun       int // mean consecutive hops on one list (default 16)
	InstrPerAccess int
	Seed           int64
}

func (s PointerChaseSpec) withDefaults() PointerChaseSpec {
	if s.Nodes <= 0 {
		s.Nodes = 4096
	}
	if s.NodeBlocks <= 0 {
		s.NodeBlocks = 1
	}
	if s.Lists <= 0 {
		s.Lists = 1
	}
	if s.StickRun <= 0 {
		s.StickRun = 16
	}
	return s
}

// Generate returns n deterministic records of the scenario.
func (s PointerChaseSpec) Generate(n int) []Record {
	s = s.withDefaults()
	rng := rand.New(rand.NewSource(s.Seed))
	gap := instrGap(rng, s.InstrPerAccess)

	type list struct {
		chain []int // visit order: a random permutation cycle
		pos   int
		blk   int // next block offset within the current node
	}
	lists := make([]list, s.Lists)
	for i := range lists {
		lists[i] = list{chain: rng.Perm(s.Nodes)}
	}
	regionBlocks := uint64(s.Nodes * s.NodeBlocks)

	var instr uint64
	cur, remain := 0, 0
	recs := make([]Record, n)
	for i := range recs {
		instr += gap()
		if remain <= 0 {
			cur = rng.Intn(len(lists))
			remain = 1 + rng.Intn(2*s.StickRun)
		}
		remain--
		l := &lists[cur]
		node := l.chain[l.pos]
		block := uint64(cur)*regionBlocks + uint64(node*s.NodeBlocks+l.blk)
		l.blk++
		if l.blk == s.NodeBlocks {
			l.blk = 0
			l.pos = (l.pos + 1) % len(l.chain)
		}
		recs[i] = Record{
			InstrID: instr,
			PC:      0x500000 + uint64(cur)*8,
			Addr:    zooBase + block<<BlockBits,
			IsLoad:  true, // pointer chasing is all loads
		}
	}
	return recs
}

// GraphSpec is the random graph traversal scenario: a random walk over a
// seeded directed graph. Each step reads the current node's adjacency-list
// blocks (sequential) and then jumps to a random neighbour's payload —
// short sequential bursts glued together by data-dependent jumps, with an
// occasional teleport restart. Deltas are irregular and high-cardinality;
// neither spatial nor temporal prefetchers see a clean recurring structure.
type GraphSpec struct {
	Name           string
	Nodes          int     // graph size (default 2048)
	Degree         int     // out-degree (default 8)
	PayloadBlocks  int     // blocks per node payload (default 2)
	Restart        float64 // teleport probability per step (default 0.02)
	InstrPerAccess int
	Seed           int64
}

func (s GraphSpec) withDefaults() GraphSpec {
	if s.Nodes <= 0 {
		s.Nodes = 2048
	}
	if s.Degree <= 0 {
		s.Degree = 8
	}
	if s.PayloadBlocks <= 0 {
		s.PayloadBlocks = 2
	}
	if s.Restart <= 0 {
		s.Restart = 0.02
	}
	return s
}

// edgesPerBlock is how many 8-byte node ids fit one cache line.
const edgesPerBlock = 8

// adjBlocks is the adjacency-list block span of one node.
func (s GraphSpec) adjBlocks() int { return (s.Degree + edgesPerBlock - 1) / edgesPerBlock }

// Generate returns n deterministic records of the scenario.
func (s GraphSpec) Generate(n int) []Record {
	s = s.withDefaults()
	rng := rand.New(rand.NewSource(s.Seed))
	gap := instrGap(rng, s.InstrPerAccess)

	// Seeded random adjacency: edge j of node u.
	adj := make([]int, s.Nodes*s.Degree)
	for i := range adj {
		adj[i] = rng.Intn(s.Nodes)
	}
	adjSpan := uint64(s.adjBlocks())
	payloadBase := uint64(s.Nodes) * adjSpan

	u := rng.Intn(s.Nodes)
	// Per-step plan: adjacency blocks of u, then payload blocks of next node.
	var queue []uint64
	var queuePC uint64
	var instr uint64
	recs := make([]Record, n)
	for i := range recs {
		if len(queue) == 0 {
			// Plan the next hop.
			if rng.Float64() < s.Restart {
				u = rng.Intn(s.Nodes) // teleport: restart the walk
			}
			ab := uint64(u) * adjSpan
			for b := uint64(0); b < adjSpan; b++ {
				queue = append(queue, ab+b)
			}
			v := adj[u*s.Degree+rng.Intn(s.Degree)]
			pb := payloadBase + uint64(v*s.PayloadBlocks)
			for b := 0; b < s.PayloadBlocks; b++ {
				queue = append(queue, pb+uint64(b))
			}
			queuePC = 0x510000 + uint64(u%64)*4
			u = v
		}
		block := queue[0]
		queue = queue[1:]
		instr += gap()
		recs[i] = Record{
			InstrID: instr,
			PC:      queuePC,
			Addr:    zooBase + block<<BlockBits,
			IsLoad:  rng.Float64() < 0.9,
		}
	}
	return recs
}

// ZipfSpec is the key-value store scenario: keys drawn from a Zipf
// distribution, each access reading the key's value as a short sequential
// block run. Key slots are scattered over the footprint by a seeded
// permutation, so popularity does not imply spatial locality — a hot set
// for the cache, near-noise for delta predictors.
type ZipfSpec struct {
	Name           string
	Keys           int     // distinct keys (default 32768)
	ValueBlocks    int     // sequential blocks per value read (default 2)
	S              float64 // Zipf skew, must be > 1 (default 1.2)
	PCs            int     // distinct request program counters (default 8)
	InstrPerAccess int
	Seed           int64
}

func (s ZipfSpec) withDefaults() ZipfSpec {
	if s.Keys <= 0 {
		s.Keys = 32768
	}
	if s.ValueBlocks <= 0 {
		s.ValueBlocks = 2
	}
	if s.S <= 1 {
		s.S = 1.2
	}
	if s.PCs <= 0 {
		s.PCs = 8
	}
	return s
}

// Generate returns n deterministic records of the scenario.
func (s ZipfSpec) Generate(n int) []Record {
	s = s.withDefaults()
	rng := rand.New(rand.NewSource(s.Seed))
	gap := instrGap(rng, s.InstrPerAccess)
	zipf := rand.NewZipf(rng, s.S, 1, uint64(s.Keys-1))
	slot := rng.Perm(s.Keys) // key rank -> scattered slot

	var instr uint64
	var rem int
	var base, pc uint64
	recs := make([]Record, n)
	for i := range recs {
		if rem == 0 {
			k := int(zipf.Uint64())
			base = uint64(slot[k] * s.ValueBlocks)
			pc = 0x520000 + uint64(k%s.PCs)*4
			rem = s.ValueBlocks
		}
		block := base + uint64(s.ValueBlocks-rem)
		rem--
		instr += gap()
		recs[i] = Record{
			InstrID: instr,
			PC:      pc,
			Addr:    zooBase + block<<BlockBits,
			IsLoad:  rng.Float64() < 0.8,
		}
	}
	return recs
}

// PhaseShiftSpec is the adversarial scenario built to punish a stale model:
// the stream switches delta regimes on a fixed schedule. Each regime is a
// strided sweep with its own dominant stride, its own footprint slice, and
// its own program counters; every PhaseLen accesses the active regime
// advances (cycling with period Regimes), so the delta distribution a model
// learned in one phase is wrong in the next. An online learner that keeps
// up re-converges each phase; a frozen model's accuracy collapses after the
// first shift — the measurable staleness signal the workload zoo exists to
// produce.
type PhaseShiftSpec struct {
	Name           string
	Pages          int     // footprint pages per regime (default 256)
	PhaseLen       int     // accesses per phase (default 2048)
	Regimes        int     // distinct delta regimes cycled through (default 3)
	StridePool     []int64 // regime r strides by StridePool[r] (default {2,5,7,3,6,4})
	Streams        int     // concurrent streams per regime (default 2)
	Jitter         float64 // irregular-jump probability within the slice (default 0.02)
	InstrPerAccess int
	Seed           int64
}

func (s PhaseShiftSpec) withDefaults() PhaseShiftSpec {
	if s.Pages <= 0 {
		s.Pages = 256
	}
	if s.PhaseLen <= 0 {
		s.PhaseLen = 2048
	}
	if s.Regimes <= 0 {
		s.Regimes = 3
	}
	if len(s.StridePool) == 0 {
		s.StridePool = []int64{2, 5, 7, 3, 6, 4}
	}
	if s.Regimes > len(s.StridePool) {
		s.Regimes = len(s.StridePool)
	}
	if s.Streams <= 0 {
		s.Streams = 2
	}
	if s.Jitter < 0 {
		s.Jitter = 0
	} else if s.Jitter == 0 {
		s.Jitter = 0.02
	}
	return s
}

// Stride returns regime r's dominant stride.
func (s PhaseShiftSpec) Stride(r int) int64 {
	s = s.withDefaults()
	return s.StridePool[r%s.Regimes]
}

// Generate returns n deterministic records of the scenario.
func (s PhaseShiftSpec) Generate(n int) []Record {
	s = s.withDefaults()
	rng := rand.New(rand.NewSource(s.Seed))
	gap := instrGap(rng, s.InstrPerAccess)
	sliceBlocks := uint64(s.Pages) * BlocksPerPage

	// Per-regime stream cursors persist across that regime's phases, so a
	// regime re-enters with the same spatial structure it left with.
	cursors := make([][]uint64, s.Regimes)
	for r := range cursors {
		cursors[r] = make([]uint64, s.Streams)
		for i := range cursors[r] {
			cursors[r][i] = uint64(rng.Int63n(int64(sliceBlocks)))
		}
	}

	var instr uint64
	recs := make([]Record, n)
	for i := range recs {
		regime := (i / s.PhaseLen) % s.Regimes
		stride := s.StridePool[regime]
		cur := cursors[regime]
		si := rng.Intn(len(cur))
		var block uint64
		if rng.Float64() < s.Jitter {
			block = uint64(rng.Int63n(int64(sliceBlocks)))
			cur[si] = block
		} else {
			nb := int64(cur[si]) + stride
			if nb < 0 || uint64(nb) >= sliceBlocks {
				nb = rng.Int63n(int64(sliceBlocks))
			}
			cur[si] = uint64(nb)
			block = cur[si]
		}
		block += uint64(regime) * sliceBlocks // regime's own footprint slice
		instr += gap()
		recs[i] = Record{
			InstrID: instr,
			PC:      0x530000 + uint64(regime)*16 + uint64(si)*4,
			IsLoad:  rng.Float64() < 0.75,
			Addr:    zooBase + block<<BlockBits,
		}
	}
	return recs
}

// Workload is one entry of the workload zoo: a named, seed-parameterised
// trace generator. Generate's seed is added to the scenario's base seed, so
// replay drivers can diversify many sessions of the same workload.
type Workload struct {
	Name     string
	Family   string // "spec", "pointer", "graph", "kv", or "phase"
	Generate func(seed int64, n int) []Record
}

// Workloads lists the full zoo: the eight SPEC-like applications plus the
// four adversarial scenario generators.
func Workloads() []Workload {
	var ws []Workload
	for _, a := range Apps() {
		spec := a
		ws = append(ws, Workload{
			Name:   spec.Name,
			Family: "spec",
			Generate: func(seed int64, n int) []Record {
				s := spec
				s.Seed += seed
				return Generate(s, n)
			},
		})
	}
	return append(ws,
		Workload{Name: "chase", Family: "pointer", Generate: func(seed int64, n int) []Record {
			return PointerChaseSpec{Name: "chase", Seed: 7001 + seed}.Generate(n)
		}},
		Workload{Name: "graph", Family: "graph", Generate: func(seed int64, n int) []Record {
			return GraphSpec{Name: "graph", Seed: 7002 + seed}.Generate(n)
		}},
		Workload{Name: "zipf", Family: "kv", Generate: func(seed int64, n int) []Record {
			return ZipfSpec{Name: "zipf", Seed: 7003 + seed}.Generate(n)
		}},
		Workload{Name: "phase", Family: "phase", Generate: func(seed int64, n int) []Record {
			return PhaseShiftSpec{Name: "phase", Seed: 7004 + seed}.Generate(n)
		}},
	)
}

// WorkloadByName finds a workload by exact name or name suffix ("mcf",
// "zipf"), mirroring AppByName.
func WorkloadByName(name string) (Workload, bool) {
	for _, w := range Workloads() {
		if w.Name == name || hasSuffix(w.Name, name) {
			return w, true
		}
	}
	return Workload{}, false
}
