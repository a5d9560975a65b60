package serve

import (
	"sync"

	"dart/internal/mat"
)

// answer is one query's inference result plus the model version that
// produced it (0 for unversioned models such as the static table hierarchy).
type answer struct {
	logits  []float64
	version uint64
}

// query is one session's model input awaiting inference, tagged with the
// fair-share tenant it belongs to.
type query struct {
	x     *mat.Matrix
	seq   uint64 // dispatch sequence at enqueue time (wait-age accounting)
	reply chan answer
}

// inferFn runs one coalesced batch and reports the model version used.
// The batcher calls it from a single goroutine, so an implementation may
// resolve a hot-swappable model once per call — which is exactly how the
// version-consistency invariant is enforced: one inferFn call, one version,
// one whole batch.
type inferFn func(in *mat.Tensor) (*mat.Tensor, uint64)

// TenantAdmission is one tenant's view of an admission batcher: its
// fair-share weight, how many queries it pushed through, how many assembled
// batches skipped it while it had work queued (starvation), and the worst
// wait it ever saw, measured in dispatched batches between enqueue and
// service. A weightless FIFO admission queue lets a hot tenant drive a cold
// tenant's MaxWaitBatches to pending/MaxBatch; weighted round-robin bounds
// it near one.
type TenantAdmission struct {
	Weight         int
	Queries        uint64
	Starved        uint64
	MaxWaitBatches uint64
}

// tenantQueue is one tenant's FIFO of pending queries plus its stats.
type tenantQueue struct {
	name   string
	q      []query
	weight int
	stats  TenantAdmission
}

// batcher is the admission layer for model inference: sessions publish their
// prepared inputs and block on the reply; the dispatch loop coalesces
// concurrently-arriving queries into one inferFn call (tabular QueryBatch
// for DART tables, a versioned nn forward pass for the online model), whose
// kernels fan out through par.For.
//
// Admission is weighted round-robin across tenants, not FIFO across
// sessions: each tenant keeps its own FIFO queue, and every assembled batch
// sweeps the active tenants in rotating order, granting each up to its
// weight in slots per sweep until the batch fills. A tenant with any work
// queued is therefore served within about one batch regardless of how many
// queries a hot tenant has piled up — the fair-share guarantee the
// starvation regression test pins down. Per-tenant FIFO order is preserved,
// so per-session query order (at most one outstanding query per session)
// is unchanged.
//
// Greedy (adaptive) batching needs no flush timer: when the engine is idle a
// query is dispatched alone with no added latency, and under concurrent load
// batches grow to MaxBatch naturally because sessions queue up while the
// previous batch runs.
type batcher struct {
	infer    inferFn
	maxBatch int
	done     chan struct{}

	mu      sync.Mutex
	cond    *sync.Cond
	tenants map[string]*tenantQueue
	order   []string // stable tenant rotation order
	rrPos   int      // rotation start for the next sweep
	pending int      // queued queries across all tenants
	stopped bool

	// Aggregate stats (guarded by mu).
	dispatchSeq uint64 // batches dispatched so far
	batches     uint64
	batched     uint64
	biggest     int
}

// defaultTenant groups queries from sessions opened without a tenant.
const defaultTenant = "default"

func newBatcher(infer inferFn, maxBatch int) *batcher {
	b := &batcher{
		infer:    infer,
		maxBatch: maxBatch,
		done:     make(chan struct{}),
		tenants:  make(map[string]*tenantQueue),
	}
	b.cond = sync.NewCond(&b.mu)
	go b.loop()
	return b
}

// tenant returns (creating if needed) a tenant's queue. Caller holds mu.
func (b *batcher) tenantLocked(name string) *tenantQueue {
	if name == "" {
		name = defaultTenant
	}
	tq := b.tenants[name]
	if tq == nil {
		tq = &tenantQueue{name: name, weight: 1, stats: TenantAdmission{Weight: 1}}
		b.tenants[name] = tq
		b.order = append(b.order, name)
	}
	return tq
}

// setWeight fixes a tenant's fair-share weight (minimum 1). The engine calls
// it at session open, before the tenant's first query.
func (b *batcher) setWeight(name string, w int) {
	if w <= 0 {
		w = 1
	}
	b.mu.Lock()
	tq := b.tenantLocked(name)
	tq.weight = w
	tq.stats.Weight = w
	b.mu.Unlock()
}

func (b *batcher) loop() {
	defer close(b.done)
	for {
		b.mu.Lock()
		for b.pending == 0 && !b.stopped {
			b.cond.Wait()
		}
		if b.pending == 0 && b.stopped {
			b.mu.Unlock()
			return
		}
		qs := b.assembleLocked()
		b.mu.Unlock()
		b.dispatch(qs)
	}
}

// assembleLocked builds the next batch by weighted round-robin over the
// tenants with queued work: starting at the rotation cursor, each sweep
// grants every active tenant up to weight slots, repeating until the batch
// is full or every queue is empty. Tenants still holding work when the
// batch closes full are counted starved for this batch. Caller holds mu.
func (b *batcher) assembleLocked() []query {
	qs := make([]query, 0, b.maxBatch)
	n := len(b.order)
	for len(qs) < b.maxBatch {
		granted := false
		for i := 0; i < n && len(qs) < b.maxBatch; i++ {
			tq := b.tenants[b.order[(b.rrPos+i)%n]]
			take := tq.weight
			for take > 0 && len(tq.q) > 0 && len(qs) < b.maxBatch {
				q := tq.q[0]
				tq.q = tq.q[1:]
				qs = append(qs, q)
				granted = true
				take--
				tq.stats.Queries++
				if wait := b.dispatchSeq - q.seq; wait > tq.stats.MaxWaitBatches {
					tq.stats.MaxWaitBatches = wait
				}
			}
		}
		if !granted {
			break // every queue empty
		}
	}
	for _, tq := range b.tenants {
		if len(tq.q) > 0 {
			tq.stats.Starved++
		}
	}
	if n > 0 {
		b.rrPos = (b.rrPos + 1) % n
	}
	b.pending -= len(qs)
	b.dispatchSeq++
	return qs
}

// dispatch runs one coalesced batch through the model and fans the
// per-sample logits back to the waiting sessions. Per-sample outputs are
// exactly a single-sample query of that model (QueryBatch's contract, and
// Forward batching for nn models), so a batched session is bit-identical to
// one querying the model directly. The whole batch runs against one model
// version — infer resolves the version exactly once per call — so a hot
// swap can never split a batch across versions.
func (b *batcher) dispatch(qs []query) {
	if len(qs) == 0 {
		return
	}
	rows, cols := qs[0].x.Rows, qs[0].x.Cols
	in := mat.NewTensor(len(qs), rows, cols)
	for i, q := range qs {
		copy(in.Sample(i).Data, q.x.Data)
	}
	out, version := b.infer(in)
	for i, q := range qs {
		q.reply <- answer{
			logits:  append([]float64(nil), out.Sample(i).Data...),
			version: version,
		}
	}
	b.mu.Lock()
	b.batches++
	b.batched += uint64(len(qs))
	if len(qs) > b.biggest {
		b.biggest = len(qs)
	}
	b.mu.Unlock()
}

// inferOne blocks until the batcher has run the input through the model on
// the tenant's behalf, returning the logits and the model version that
// served them.
func (b *batcher) inferOne(x *mat.Matrix, tenant string) ([]float64, uint64) {
	q := query{x: x, reply: make(chan answer, 1)}
	b.mu.Lock()
	tq := b.tenantLocked(tenant)
	q.seq = b.dispatchSeq
	tq.q = append(tq.q, q)
	b.pending++
	b.mu.Unlock()
	b.cond.Signal()
	a := <-q.reply
	return a.logits, a.version
}

// stats reports (batches dispatched, queries served, largest batch).
func (b *batcher) stats() (uint64, uint64, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.batches, b.batched, b.biggest
}

// tenantStats snapshots every tenant's admission view.
func (b *batcher) tenantStats() map[string]TenantAdmission {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]TenantAdmission, len(b.tenants))
	for name, tq := range b.tenants {
		out[name] = tq.stats
	}
	return out
}

// stop shuts the dispatch loop down after serving any queued queries. The
// engine calls it only after every session has drained, so no new queries
// can arrive concurrently.
func (b *batcher) stop() {
	b.mu.Lock()
	b.stopped = true
	b.mu.Unlock()
	b.cond.Signal()
	<-b.done
}

// batchedModel adapts a batcher to prefetch.BitmapPredictor, the hook that
// lets each session keep a private NNPrefetcher (history ring, degree) while
// sharing one model and one admission batcher with every other session. The
// tenant tag routes the session's queries into its fair-share queue. The
// model version that served each query is written to *ver, which is owned by
// the session actor goroutine (Logits is only ever called from inside that
// session's sim.Step). The actor reads it back after the step to tag
// responses — the mechanism behind "sessions pick up a new version at step
// boundaries".
type batchedModel struct {
	b      *batcher
	tenant string
	ver    *uint64
}

// Logits routes the query through the admission batcher and records the
// serving version.
func (m batchedModel) Logits(x *mat.Matrix) []float64 {
	logits, v := m.b.inferOne(x, m.tenant)
	*m.ver = v
	return logits
}
