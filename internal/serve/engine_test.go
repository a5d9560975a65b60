package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
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
	var hammer, pumps, started sync.WaitGroup
	stop := make(chan struct{})
	hammer.Add(1)
	go func() {
		defer hammer.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = e.StatsSnapshot()
			}
		}
	}()
	pumps.Add(4)
	started.Add(4)
	for i := 0; i < 4; i++ {
		go func(i int) {
			defer pumps.Done()
			for j, rec := range sessionTrace(int64(i), 1500) {
				e.Submit(fmt.Sprintf("s%d", i), rec, nil)
				if j == 0 {
					started.Done()
				}
			}
		}(i)
	}
	// Snapshot mid-stream, once every pump has an access in.
	started.Wait()
	st := e.StatsSnapshot()
	if st.Sessions != 4 {
		t.Fatalf("snapshot sees %d sessions, want 4", st.Sessions)
	}
	// Let the pumps finish, then stop the stats hammer. Submit counts an
	// access before it returns, so every access is counted by now.
	pumps.Wait()
	if got := e.StatsSnapshot().Accepted; got != 4*1500 {
		t.Fatalf("accepted %d accesses, want %d", got, 4*1500)
	}
	close(stop)
	hammer.Wait()
	e.Drain()
}

// TestDrainRacesOpensAndCloses: goroutines open, feed and close sessions
// while Drain runs. Every open that succeeded ends either in Drain's result
// or in its own goroutine's Close, never both; once one open has seen the
// engine draining, every later open fails the same way; nothing stays open.
func TestDrainRacesOpensAndCloses(t *testing.T) {
	e := NewEngine(Config{SimCfg: smallSimCfg(), QueueDepth: 4})
	recs := sessionTrace(1, 32)
	var (
		mu       sync.Mutex
		opened   = make(map[string]bool)
		selfDone = make(map[string]bool) // closed by its own goroutine
		sawDrain atomic.Bool
		wg       sync.WaitGroup
	)
	busy := make(chan struct{}, 64) // one token per successful open
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				late := sawDrain.Load()
				if err := e.Open(id, "stride", 2); err != nil {
					if err.Error() != "serve: engine is draining" {
						t.Errorf("open %s: %v", id, err)
					}
					sawDrain.Store(true)
					return
				}
				if late {
					t.Errorf("open %s succeeded after an open saw the engine draining", id)
				}
				mu.Lock()
				opened[id] = true
				mu.Unlock()
				select {
				case busy <- struct{}{}:
				default:
				}
				for _, rec := range recs {
					if err := e.Submit(id, rec, nil); err != nil {
						if !errors.Is(err, ErrSessionClosed) && !errors.Is(err, ErrUnknownSession) {
							t.Errorf("submit %s: %v", id, err)
						}
						break
					}
				}
				if _, err := e.Close(id); err == nil {
					mu.Lock()
					selfDone[id] = true
					mu.Unlock()
				} else if !errors.Is(err, ErrUnknownSession) && !strings.Contains(err.Error(), "already closing") {
					t.Errorf("close %s: %v", id, err)
				}
			}
		}(w)
	}
	for i := 0; i < 16; i++ {
		<-busy
	}
	drained := e.Drain()
	wg.Wait()
	if err := e.Open("after", "stride", 2); err == nil || err.Error() != "serve: engine is draining" {
		t.Fatalf("open after Drain: %v", err)
	}
	for id := range drained {
		if !opened[id] || selfDone[id] {
			t.Errorf("drained %s: opened %v, closed by its goroutine %v", id, opened[id], selfDone[id])
		}
	}
	for id := range opened {
		if _, ok := drained[id]; ok == selfDone[id] {
			t.Errorf("session %s: drained %v, closed by its goroutine %v", id, ok, selfDone[id])
		}
	}
	if ids := e.Sessions(); len(ids) != 0 {
		t.Fatalf("sessions left after Drain: %v", ids)
	}
}

// TestOfflineDartReferenceSkipsBatcher: Config's registry builds the static
// "dart" reference over the tables themselves, so an offline run sends no
// query through the engine's batcher and still matches the served session.
func TestOfflineDartReferenceSkipsBatcher(t *testing.T) {
	data := dataprep.Default()
	e := NewEngine(Config{SimCfg: smallSimCfg(), Model: testHierarchy(t, data),
		Data: data, ModelLatency: 37, ModelStorage: 1 << 16})
	defer e.Drain()
	recs := sessionTrace(3, 300)
	pf, err := e.Config().Registry.New("dart", 4)
	if err != nil {
		t.Fatal(err)
	}
	want := sim.Run(recs, pf, e.Config().SimCfg)
	if b := e.StatsSnapshot().Batched; b != 0 {
		t.Fatalf("offline reference sent %d queries through the batcher", b)
	}
	if err := e.Open("d", "dart", 4); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := e.Submit("d", rec, nil); err != nil {
			t.Fatal(err)
		}
	}
	got, err := e.Close("d")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("served dart session diverged from the table reference:\n got %+v\nwant %+v", got, want)
	}
}
