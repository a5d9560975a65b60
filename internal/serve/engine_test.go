package serve

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dart/internal/dataprep"
	"dart/internal/mat"
	"dart/internal/nn"
	"dart/internal/prefetch"
	"dart/internal/sim"
	"dart/internal/tabular"
	"dart/internal/trace"
)

// testHierarchy builds a small but real table hierarchy mapping the
// dataprep input (History x InputDim) to a 1 x OutputDim logit row:
// linear kernel → ReLU → mean pool → linear kernel.
func testHierarchy(t testing.TB, data dataprep.Config) *tabular.Hierarchy {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	din, dmid, dout := data.InputDim(), 16, data.OutputDim()
	randTensor := func(n, rows, cols int) *mat.Tensor {
		ts := mat.NewTensor(n, rows, cols)
		for i := range ts.Data {
			ts.Data[i] = rng.NormFloat64()
		}
		return ts
	}
	l1 := nn.NewLinear("l1", din, dmid, rng)
	k1 := tabular.NewLinearKernel(l1, randTensor(48, data.History, din), tabular.KernelConfig{K: 8, C: 2}, rng)
	l2 := nn.NewLinear("l2", dmid, dout, rng)
	k2 := tabular.NewLinearKernel(l2, randTensor(48, 1, dmid), tabular.KernelConfig{K: 8, C: 2}, rng)
	return &tabular.Hierarchy{Layers: []tabular.Layer{k1, tabular.ReLUTab{}, tabular.MeanPoolTab{}, k2}}
}

func sessionTrace(seed int64, n int) []trace.Record {
	return trace.Generate(trace.AppSpec{
		Name: "serve", Pages: 300, Streams: 3,
		Strides: []int64{1, 2, 5}, IrregularFrac: 0.1, Seed: seed,
	}, n)
}

// smallSimCfg keeps the LLC small so prefetchers matter on short traces.
func smallSimCfg() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.LLCBlocks = 4096
	return cfg
}

// TestServedBitIdenticalToOffline is the engine's core contract: 12
// concurrent sessions with mixed prefetchers (including the batched DART
// path) must each produce a result bit-identical to an offline sim.Run of
// the same trace.
func TestServedBitIdenticalToOffline(t *testing.T) {
	data := dataprep.Default()
	h := testHierarchy(t, data)
	e := NewEngine(Config{
		SimCfg: smallSimCfg(),
		Model:  h, Data: data, ModelLatency: 37, ModelStorage: 1 << 16,
	})

	kinds := []string{"stride", "bo", "isb", "dart"}
	const perKind = 3
	const n = 2500
	type sess struct {
		id   string
		kind string
		recs []trace.Record
	}
	var sessions []sess
	for k, kind := range kinds {
		for i := 0; i < perKind; i++ {
			id := fmt.Sprintf("%s-%d", kind, i)
			sessions = append(sessions, sess{id, kind, sessionTrace(int64(100*k+i), n)})
		}
	}
	for _, s := range sessions {
		if err := e.Open(s.id, s.kind, 4); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, s := range sessions {
		wg.Add(1)
		go func(s sess) {
			defer wg.Done()
			for _, rec := range s.recs {
				if err := e.Submit(s.id, rec, nil); err != nil {
					t.Errorf("%s: %v", s.id, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()

	reg := prefetch.NewRegistry()
	reg.Register("dart", func(degree int) sim.Prefetcher {
		return prefetch.NewNNPrefetcher("DART", prefetch.TableModel{H: h}, data, 37, 1<<16, degree)
	})
	for _, s := range sessions {
		got, err := e.Close(s.id)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := reg.New(s.kind, 4)
		if err != nil {
			t.Fatal(err)
		}
		want := sim.Run(s.recs, pf, smallSimCfg())
		if got != want {
			t.Fatalf("session %s diverged from offline run:\n got %+v\nwant %+v", s.id, got, want)
		}
	}
	st := e.StatsSnapshot()
	if st.Batched == 0 {
		t.Fatal("no model queries went through the admission batcher")
	}
	e.Drain()
}

// TestResponsesInOrderPerSession: sequence numbers must arrive in submit
// order even with concurrent sessions.
func TestResponsesInOrderPerSession(t *testing.T) {
	e := NewEngine(Config{SimCfg: smallSimCfg()})
	const n = 600
	ids := []string{"a", "b", "c", "d"}
	for _, id := range ids {
		if err := e.Open(id, "stride", 2); err != nil {
			t.Fatal(err)
		}
	}
	seqs := make(map[string][]uint64)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for si, id := range ids {
		wg.Add(1)
		go func(si int, id string) {
			defer wg.Done()
			for _, rec := range sessionTrace(int64(si), n) {
				e.Submit(id, rec, func(r Response) {
					mu.Lock()
					seqs[r.Session] = append(seqs[r.Session], r.Seq)
					mu.Unlock()
				})
			}
		}(si, id)
	}
	wg.Wait()
	e.Drain()
	for _, id := range ids {
		got := seqs[id]
		if len(got) != n {
			t.Fatalf("session %s: %d responses, want %d", id, len(got), n)
		}
		for i, s := range got {
			if s != uint64(i+1) {
				t.Fatalf("session %s: response %d has seq %d", id, i, s)
			}
		}
	}
}

// TestBackpressureBlocksSubmit: a full inbox must block the producer, not
// drop or buffer unboundedly.
func TestBackpressureBlocksSubmit(t *testing.T) {
	e := NewEngine(Config{SimCfg: smallSimCfg(), QueueDepth: 2})
	if err := e.Open("s", "none", 1); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	first := make(chan struct{})
	rec := trace.Record{InstrID: 1, Addr: 1 << 20}
	// The actor picks this up and blocks in its callback, stalling the
	// session while leaving the inbox drained once.
	e.Submit("s", rec, func(Response) { close(first); <-release })
	<-first
	// Fill the inbox.
	e.Submit("s", rec, nil)
	e.Submit("s", rec, nil)
	// The next submit must block until the actor is released.
	blocked := make(chan struct{})
	go func() {
		e.Submit("s", rec, nil)
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("submit into a full inbox did not block")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-blocked:
	case <-time.After(2 * time.Second):
		t.Fatal("submit never unblocked after the inbox drained")
	}
	e.Drain()
}

func TestSessionLifecycleErrors(t *testing.T) {
	e := NewEngine(Config{SimCfg: smallSimCfg()})
	if err := e.Open("", "stride", 1); err == nil {
		t.Fatal("empty session id accepted")
	}
	if err := e.Open("x", "no-such-prefetcher", 1); err == nil {
		t.Fatal("unknown prefetcher accepted")
	}
	if err := e.Open("x", "stride", 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Open("x", "stride", 1); err == nil {
		t.Fatal("duplicate open accepted")
	}
	if err := e.Submit("ghost", trace.Record{}, nil); err == nil {
		t.Fatal("submit to unknown session accepted")
	}
	if _, err := e.Close("ghost"); err == nil {
		t.Fatal("close of unknown session accepted")
	}
	if _, err := e.Close("x"); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit("x", trace.Record{}, nil); err == nil {
		t.Fatal("submit to closed session accepted")
	}
	// Session id is free again after close.
	if err := e.Open("x", "bo", 1); err != nil {
		t.Fatal(err)
	}
	res := e.Drain()
	if len(res) != 1 {
		t.Fatalf("drain returned %d sessions, want 1", len(res))
	}
	if err := e.Open("y", "stride", 1); err == nil {
		t.Fatal("open accepted after drain")
	}
}

// TestDrainCollectsEverything: drain must return a final result for every
// open session, with all queued work applied.
func TestDrainCollectsEverything(t *testing.T) {
	e := NewEngine(Config{SimCfg: smallSimCfg(), QueueDepth: 8})
	const n = 400
	want := make(map[string]sim.Result)
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("s%d", i)
		recs := sessionTrace(int64(i), n)
		if err := e.Open(id, "stride", 2); err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if err := e.Submit(id, rec, nil); err != nil {
				t.Fatal(err)
			}
		}
		want[id] = sim.Run(recs, prefetch.NewStride(2), smallSimCfg())
	}
	got := e.Drain()
	if len(got) != len(want) {
		t.Fatalf("drained %d sessions, want %d", len(got), len(want))
	}
	for id, w := range want {
		if got[id] != w {
			t.Fatalf("drained session %s:\n got %+v\nwant %+v", id, got[id], w)
		}
	}
}

// TestStatsSnapshotLive exercises the mid-stream stats path under load.
func TestStatsSnapshotLive(t *testing.T) {
	e := NewEngine(Config{SimCfg: smallSimCfg()})
	for i := 0; i < 4; i++ {
		if err := e.Open(fmt.Sprintf("s%d", i), "bo", 2); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = e.StatsSnapshot()
			}
		}
	}()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, rec := range sessionTrace(int64(i), 1500) {
				e.Submit(fmt.Sprintf("s%d", i), rec, nil)
			}
		}(i)
	}
	time.Sleep(10 * time.Millisecond)
	st := e.StatsSnapshot()
	if st.Sessions != 4 {
		t.Fatalf("snapshot sees %d sessions, want 4", st.Sessions)
	}
	// Let the pumps finish, then stop the stats hammer.
	for len(stop) == 0 {
		if e.StatsSnapshot().Accepted >= 4*1500 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	e.Drain()
}
