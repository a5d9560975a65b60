package serve

import (
	"sync"
	"testing"
	"time"

	"dart/internal/mat"
)

// echoInfer is a trivial inference kernel for batcher-level tests; delay
// models a slow model so queues build up under concurrent load.
func echoInfer(delay time.Duration) inferFn {
	return func(in *mat.Tensor) (*mat.Tensor, uint64) {
		if delay > 0 {
			time.Sleep(delay)
		}
		return mat.NewTensor(in.N, in.T, in.D), 1
	}
}

// enqueueLocked plants n queries for a tenant directly, bypassing inferOne,
// so assembly can be unit-tested without goroutines. Caller holds b.mu.
func enqueueLocked(b *batcher, tenant string, n int) {
	tq := b.tenantLocked(tenant)
	for i := 0; i < n; i++ {
		tq.q = append(tq.q, query{seq: b.dispatchSeq, reply: make(chan answer, 1)})
		b.pending++
	}
}

// TestWRRAssembly pins the weighted-round-robin admission policy itself:
// with two saturated tenants, each batch grants slots in weight proportion,
// the rotation cursor moves the sweep's starting tenant between batches, and
// tenants left holding work when a batch closes are counted starved.
func TestWRRAssembly(t *testing.T) {
	b := &batcher{maxBatch: 4, tenants: map[string]*tenantQueue{}}
	b.cond = sync.NewCond(&b.mu)
	b.mu.Lock()
	defer b.mu.Unlock()

	enqueueLocked(b, "hot", 10)
	enqueueLocked(b, "cold", 10)
	b.tenants["hot"].weight = 3
	b.tenants["hot"].stats.Weight = 3

	// First sweep starts at "hot" (insertion order): 3 hot + 1 cold.
	if got := len(b.assembleLocked()); got != 4 {
		t.Fatalf("batch 1 size %d, want 4", got)
	}
	if h, c := b.tenants["hot"].stats.Queries, b.tenants["cold"].stats.Queries; h != 3 || c != 1 {
		t.Fatalf("batch 1 split hot=%d cold=%d, want 3/1", h, c)
	}
	// Rotation: the second batch sweeps from "cold": 1 cold, then 3 hot.
	b.assembleLocked()
	if h, c := b.tenants["hot"].stats.Queries, b.tenants["cold"].stats.Queries; h != 6 || c != 2 {
		t.Fatalf("after batch 2 hot=%d cold=%d, want 6/2", h, c)
	}
	// Both tenants still hold work at both closes: starved twice each.
	if h, c := b.tenants["hot"].stats.Starved, b.tenants["cold"].stats.Starved; h != 2 || c != 2 {
		t.Fatalf("starved hot=%d cold=%d, want 2/2", h, c)
	}

	// Once the hot tenant drains, cold's backlog fills whole batches alone
	// and nobody is starved by a sweep that emptied every queue.
	b.tenants["hot"].q = nil
	b.pending = len(b.tenants["cold"].q)
	got := b.assembleLocked()
	if len(got) != 4 || b.tenants["cold"].stats.Queries != 6 {
		t.Fatalf("drain batch size %d coldQueries %d, want 4/6", len(got), b.tenants["cold"].stats.Queries)
	}
	// Leftover-cold accounting: cold had 8 queued, took 4, still starved.
	if c := b.tenants["cold"].stats.Starved; c != 3 {
		t.Fatalf("cold starved %d, want 3", c)
	}
	// Final batch empties cold completely: no starvation increment.
	b.assembleLocked()
	if c := b.tenants["cold"].stats.Starved; c != 3 {
		t.Fatalf("cold starved %d after clean drain, want 3", c)
	}
	if b.pending != 0 {
		t.Fatalf("pending %d after drain, want 0", b.pending)
	}
}

// TestFairShareColdTenantNotStalled is the starvation regression test at the
// batcher layer: a hot tenant keeps ~16 queries in flight against a slow
// model while a cold tenant trickles in single queries. Under the previous
// weightless FIFO admission queue the cold query waited behind the whole hot
// backlog (MaxWaitBatches ≈ backlog/MaxBatch); weighted round-robin must
// serve it in the next assembled batch.
func TestFairShareColdTenantNotStalled(t *testing.T) {
	b := newBatcher(echoInfer(200*time.Microsecond), 4)
	x := mat.New(1, 1)

	const hotWorkers, hotPerWorker, coldQueries = 16, 30, 20
	var wg sync.WaitGroup
	for i := 0; i < hotWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < hotPerWorker; j++ {
				b.inferOne(x, "hot")
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < coldQueries; j++ {
			b.inferOne(x, "cold")
			time.Sleep(300 * time.Microsecond) // arrive mid-flood, never backlogged
		}
	}()
	wg.Wait()
	b.stop()

	st := b.tenantStats()
	hot, cold := st["hot"], st["cold"]
	if hot.Queries != hotWorkers*hotPerWorker || cold.Queries != coldQueries {
		t.Fatalf("queries hot=%d cold=%d, want %d/%d",
			hot.Queries, cold.Queries, hotWorkers*hotPerWorker, coldQueries)
	}
	// The fair-share guarantee: with one outstanding query, the cold tenant
	// is admitted into the very next batch assembled after it enqueues.
	if cold.MaxWaitBatches > 1 {
		t.Fatalf("cold tenant waited %d batches; fair share promises at most 1", cold.MaxWaitBatches)
	}
	if cold.Starved != 0 {
		t.Fatalf("cold tenant starved %d times with nothing backlogged", cold.Starved)
	}
	// Sanity: the flood really did oversubscribe admission — the hot tenant's
	// backlog spilled past full batches.
	if hot.Starved == 0 {
		t.Fatal("hot tenant never starved; the test exerted no admission pressure")
	}
}

// TestRejectedOpenKeepsTenantWeight: an open that loses — here a retry of a
// live session id with Weight omitted — must not touch the tenant's fair-share
// weight; only a session that won its id may set it.
func TestRejectedOpenKeepsTenantWeight(t *testing.T) {
	data := onlineTestData()
	e := NewEngine(Config{Model: testHierarchy(t, data), Data: data})
	defer e.Drain()
	if err := e.OpenSession("s", SessionOptions{Prefetcher: "dart", Tenant: "A", Weight: 4}); err != nil {
		t.Fatal(err)
	}
	if err := e.OpenSession("s", SessionOptions{Prefetcher: "dart", Tenant: "A"}); err == nil {
		t.Fatal("duplicate session id accepted")
	}
	if got := e.TenantAdmissions()["A"].Weight; got != 4 {
		t.Fatalf("rejected open reset tenant A's weight to %d, want 4", got)
	}
}

// TestBatcherDefaultTenant: sessions opened without a tenant share the
// "default" fair-share queue, preserving the pre-tenant behaviour.
func TestBatcherDefaultTenant(t *testing.T) {
	b := newBatcher(echoInfer(0), 8)
	x := mat.New(1, 1)
	for i := 0; i < 5; i++ {
		b.inferOne(x, "")
	}
	b.stop()
	st := b.tenantStats()
	if len(st) != 1 || st[defaultTenant].Queries != 5 {
		t.Fatalf("default-tenant stats wrong: %+v", st)
	}
}
