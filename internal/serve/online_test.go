package serve

import (
	"bufio"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dart/internal/dataprep"
	"dart/internal/mat"
	"dart/internal/nn"
	"dart/internal/online"
	"dart/internal/sim"
)

// onlineTestData keeps windows small so short session traces produce model
// queries and training examples quickly.
func onlineTestData() dataprep.Config {
	return dataprep.Config{History: 4, SegmentBits: 6, Segments: 4, LookForward: 4, DeltaRange: 8}
}

func onlineTestArch(data dataprep.Config) func() nn.Layer {
	return func() nn.Layer {
		rng := rand.New(rand.NewSource(21))
		return nn.NewTransformerPredictor(nn.TransformerConfig{
			T: data.History, DIn: data.InputDim(),
			DModel: 8, DFF: 16, DOut: data.OutputDim(), Heads: 2, Layers: 1,
		}, rng)
	}
}

func testLearner(t testing.TB, dir string) *online.Learner {
	t.Helper()
	data := onlineTestData()
	l, err := online.NewLearner(online.Config{
		Data: data, New: onlineTestArch(data), Dir: dir,
		BatchSize: 8, Tick: time.Millisecond, SwapInterval: -1, Duty: 0.5,
		Latency: 25, StorageBytes: 1 << 14, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestOnlineHotSwapMidReplay is the acceptance test for the hot-swap path:
// while concurrent online sessions stream accesses, the model is force-
// swapped repeatedly. Every session must see all of its accesses exactly
// once, in order (zero dropped, zero reordered), and the model versions
// tagged on its responses must be non-decreasing — a session can only move
// forward through published versions, never see a torn batch.
func TestOnlineHotSwapMidReplay(t *testing.T) {
	dir := t.TempDir()
	l := testLearner(t, dir)
	l.Start()
	defer l.Stop()

	e := NewEngine(Config{SimCfg: smallSimCfg(), Online: l})
	const sessions, n = 6, 2000
	type obs struct {
		seqs []uint64
		vers []uint64
	}
	got := make([]obs, sessions)
	var mu sync.Mutex

	for i := 0; i < sessions; i++ {
		if err := e.Open(fmt.Sprintf("s%d", i), "online", 4); err != nil {
			t.Fatal(err)
		}
	}

	// Swap continuously while the replay runs.
	stop := make(chan struct{})
	var swaps atomic.Uint64
	var swapWG sync.WaitGroup
	swapWG.Add(1)
	go func() {
		defer swapWG.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
				if _, err := l.Swap(); err != nil {
					t.Errorf("swap: %v", err)
					return
				}
				swaps.Add(1)
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("s%d", i)
			for _, rec := range sessionTrace(int64(i), n) {
				err := e.Submit(id, rec, func(r Response) {
					mu.Lock()
					got[i].seqs = append(got[i].seqs, r.Seq)
					got[i].vers = append(got[i].vers, r.Version)
					mu.Unlock()
				})
				if err != nil {
					t.Errorf("%s: %v", id, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	res := e.Drain()
	close(stop)
	swapWG.Wait()

	if swaps.Load() == 0 {
		t.Fatal("no swap happened mid-replay; the test proved nothing")
	}
	if len(res) != sessions {
		t.Fatalf("drain returned %d sessions, want %d", len(res), sessions)
	}
	distinct := make(map[uint64]bool)
	for i := 0; i < sessions; i++ {
		o := got[i]
		if len(o.seqs) != n {
			t.Fatalf("session %d: %d responses, want %d (dropped accesses)", i, len(o.seqs), n)
		}
		for j, s := range o.seqs {
			if s != uint64(j+1) {
				t.Fatalf("session %d: response %d has seq %d (reordered)", i, j, s)
			}
		}
		var prev uint64
		for j, v := range o.vers {
			if v < prev {
				t.Fatalf("session %d: version went backwards at response %d (%d after %d)", i, j, v, prev)
			}
			prev = v
			if v > 0 {
				distinct[v] = true
			}
		}
		if res[fmt.Sprintf("s%d", i)].Accesses != n {
			t.Fatalf("session %d result counted %d accesses, want %d", i, res[fmt.Sprintf("s%d", i)].Accesses, n)
		}
	}
	if len(distinct) < 2 {
		t.Fatalf("sessions observed versions %v: hot swap never picked up mid-replay", distinct)
	}
	// Drain (via Close) must have detached every tap from the learner.
	if st := l.Stats(); st.Sessions != 0 {
		t.Fatalf("%d taps still attached after drain", st.Sessions)
	}
}

// TestTapCountsSessionOutcomes: every prefetch outcome a tapped session's
// simulator counts reaches the learner's counters — late hits and first uses
// in the LLC, and first uses in the private L2 that the LLC never sees. The
// learner is never started, so nothing drains the ring until Stop.
func TestTapCountsSessionOutcomes(t *testing.T) {
	twoLevel := sim.TwoLevelConfig()
	twoLevel.PrefetchFillL2 = true
	for _, tc := range []struct {
		name string
		cfg  sim.Config
	}{{"default", sim.DefaultConfig()}, {"two-level+pf-l2", twoLevel}} {
		t.Run(tc.name, func(t *testing.T) {
			l := testLearner(t, t.TempDir())
			e := NewEngine(Config{SimCfg: tc.cfg, Online: l})
			if err := e.Open("s", "online", 4); err != nil {
				t.Fatal(err)
			}
			for _, rec := range sessionTrace(5, 3000) {
				if _, err := e.Access("s", rec); err != nil {
					t.Fatal(err)
				}
			}
			l.Stop()
			res, err := e.Close("s")
			if err != nil {
				t.Fatal(err)
			}
			st := l.Stats()
			if st.Dropped != 0 {
				t.Fatalf("%d events dropped: the ring overflowed and the counts are partial", st.Dropped)
			}
			if st.Useful == 0 || st.Late == 0 {
				t.Fatalf("useful %d, late %d: an outcome kind went unexercised", st.Useful, st.Late)
			}
			if st.Late != uint64(res.LateCovered) || st.Useful+st.Late != uint64(res.PrefetchUseful) {
				t.Fatalf("learner saw useful %d + late %d, simulator counted useful %d (late %d)",
					st.Useful, st.Late, res.PrefetchUseful, res.LateCovered)
			}
		})
	}
}

// TestOnlineCheckpointRoundTripThroughServing: the version serving ends on
// must round-trip save→load→Publish bit-identically.
func TestOnlineCheckpointRoundTripThroughServing(t *testing.T) {
	dir := t.TempDir()
	l := testLearner(t, dir)
	l.Start()

	e := NewEngine(Config{SimCfg: smallSimCfg(), Online: l})
	if err := e.Open("s", "online", 4); err != nil {
		t.Fatal(err)
	}
	for _, rec := range sessionTrace(4, 1200) {
		if err := e.Submit("s", rec, nil); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()
	if _, err := l.Swap(); err != nil {
		t.Fatal(err)
	}
	l.Stop() // flushes a final version when training advanced past the swap
	served := class(t, l, online.TeacherClass).Store().Load()

	recovered, err := online.NewModelStore(onlineTestArch(onlineTestData()), dir, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered.Skipped()) != 0 {
		t.Fatalf("recovery skipped %v", recovered.Skipped())
	}
	m := recovered.Load()
	if m == nil || m.Version != served.Version {
		t.Fatalf("recovered %+v, served v%d", m, served.Version)
	}
	sp, rp := served.Val.Params(), m.Val.Params()
	for i := range sp {
		for j, v := range sp[i].W.Data {
			if rp[i].W.Data[j] != v {
				t.Fatalf("param %q[%d] differs after save→load→Publish round trip", sp[i].Name, j)
			}
		}
	}
}

// TestBatcherNeverMixesVersions hammers the versioned batcher from many
// producer goroutines while versions are published concurrently. Each
// inferFn call resolves the version exactly once for its whole batch (the
// invariant), every reply's version must be one the infer loop actually
// used, and each producer must observe non-decreasing versions. Run under
// -race this also proves the swap path is data-race free.
func TestBatcherNeverMixesVersions(t *testing.T) {
	var current atomic.Uint64
	current.Store(1)
	var dispatched sync.Map // version -> true, recorded inside inferFn
	b := newBatcher(func(in *mat.Tensor) (*mat.Tensor, uint64) {
		v := current.Load() // resolved once per batch, like the online inferFn
		dispatched.Store(v, true)
		return mat.NewTensor(in.N, 1, 1), v
	}, 16)

	stop := make(chan struct{})
	var pubWG sync.WaitGroup
	pubWG.Add(1)
	go func() {
		defer pubWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				current.Add(1)
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()

	const producers, perProducer = 8, 400
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := mat.New(1, 1)
			var prev uint64
			for i := 0; i < perProducer; i++ {
				_, v := b.inferOne(x, "")
				if v < prev {
					t.Errorf("version went backwards: %d after %d", v, prev)
					return
				}
				if _, ok := dispatched.Load(v); !ok {
					t.Errorf("reply carries version %d that no batch dispatched", v)
					return
				}
				prev = v
			}
		}()
	}
	wg.Wait()
	close(stop)
	pubWG.Wait()
	b.stop()

	batches, batched, _ := b.stats()
	if batched != producers*perProducer {
		t.Fatalf("batcher served %d queries, want %d", batched, producers*perProducer)
	}
	if batches == batched {
		t.Log("note: no coalescing happened (every batch had one query)")
	}
}

// TestOnlineProtocolVerbs drives model/swap/rollback over a real socket.
func TestOnlineProtocolVerbs(t *testing.T) {
	l := testLearner(t, "")
	l.Start()
	defer l.Stop()
	conn, _, stopSrv := startServer(t, Config{SimCfg: smallSimCfg(), Online: l})
	defer stopSrv()
	br := bufio.NewReader(conn)

	if rep := rpc(t, conn, br, Request{Op: "open", Session: "s1", Prefetcher: "online", Degree: 4}); !rep.OK {
		t.Fatalf("open online session failed: %s", rep.Err)
	}
	recs := sessionTrace(5, 300)
	sawVersion := false
	for i, rec := range recs {
		rep := rpc(t, conn, br, Request{
			Op: "access", Session: "s1",
			InstrID: rec.InstrID, PC: Hex64(rec.PC), Addr: Hex64(rec.Addr), IsLoad: rec.IsLoad,
		})
		if !rep.OK {
			t.Fatalf("access %d failed: %s", i, rep.Err)
		}
		if rep.Version > 0 {
			sawVersion = true
		}
	}
	if !sawVersion {
		t.Fatal("no access reply carried a model version")
	}

	mo := rpc(t, conn, br, Request{Op: "model"})
	if !mo.OK || mo.Online == nil || mo.Online.Version == 0 {
		t.Fatalf("model reply %+v", mo)
	}
	if mo.Online.Ingested == 0 {
		t.Fatalf("learner ingested nothing: %+v", mo.Online)
	}

	before := mo.Online.Version
	sw := rpc(t, conn, br, Request{Op: "swap"})
	if !sw.OK || sw.Version != before+1 {
		t.Fatalf("swap reply %+v (was v%d)", sw, before)
	}
	rb := rpc(t, conn, br, Request{Op: "rollback"})
	if !rb.OK || rb.Version != before {
		t.Fatalf("rollback reply %+v (want v%d)", rb, before)
	}

	st := rpc(t, conn, br, Request{Op: "stats"})
	if !st.OK || st.Stats == nil || st.Stats.Online == nil {
		t.Fatalf("stats reply has no online section: %+v", st.Stats)
	}
	if rep := rpc(t, conn, br, Request{Op: "close", Session: "s1"}); !rep.OK {
		t.Fatalf("close failed: %s", rep.Err)
	}
}

// TestOnlineVerbsWithoutLearner: the verbs must fail cleanly on an engine
// with no learner.
func TestOnlineVerbsWithoutLearner(t *testing.T) {
	conn, _, stopSrv := startServer(t, Config{SimCfg: smallSimCfg()})
	defer stopSrv()
	br := bufio.NewReader(conn)
	for _, op := range []string{"model", "swap", "rollback"} {
		rep := rpc(t, conn, br, Request{Op: op})
		if rep.OK || rep.Err == "" {
			t.Fatalf("%s on a learner-less engine: %+v", op, rep)
		}
	}
	if rep := rpc(t, conn, br, Request{Op: "open", Session: "x", Prefetcher: "online"}); rep.OK {
		t.Fatal("online session opened without a learner")
	}
}
