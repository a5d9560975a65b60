package serve

import (
	"bufio"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"dart/internal/nn"
	"dart/internal/online"
	"dart/internal/tabular"
)

// testPolicyLearner is testDartLearner with the promotion policy engine on.
func testPolicyLearner(t testing.TB, dir string, pc online.PolicyConfig) *online.Learner {
	t.Helper()
	data := onlineTestData()
	tcfg := nn.TransformerConfig{
		T: data.History, DIn: data.InputDim(),
		DModel: 8, DFF: 16, DOut: data.OutputDim(), Heads: 2, Layers: 1,
	}
	scfg := nn.StudentConfig(tcfg)
	l, err := online.NewLearner(online.Config{
		Data: data, New: onlineTestArch(data), Dir: dir,
		BatchSize: 8, Tick: time.Millisecond, SwapInterval: -1, Duty: 0.5,
		Latency: 25, StorageBytes: 1 << 14,
		Student: func() nn.Layer {
			return nn.NewTransformerPredictor(scfg, rand.New(rand.NewSource(31)))
		},
		DistillInterval: -1, StudentLatency: 10, StudentStorageBytes: 1 << 12,
		Dart: true,
		Tabular: tabular.Config{
			Kernel: tabular.KernelConfig{K: 4, C: 1, Kind: tabular.EncoderLSH},
			Seed:   17,
		},
		TabularizeInterval: -1, DartSamples: 32,
		Policy: &pc,
		Seed:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestPolicyVerb drives the policy wire verb over a real socket: a gated
// learner reports its gate states, forced publishes land in the decision log
// with their bypass marked, and the stats verb carries the policy summary.
func TestPolicyVerb(t *testing.T) {
	// An unattainable admission threshold would block the forced swap too if
	// forced verbs were gated — they must bypass.
	l := testPolicyLearner(t, "", online.PolicyConfig{AdmitThreshold: 1, AdmitWindow: 2})
	l.Start()
	defer l.Stop()
	conn, _, stopSrv := startServer(t, Config{SimCfg: smallSimCfg(), Online: l})
	defer stopSrv()
	br := bufio.NewReader(conn)

	rep := rpc(t, conn, br, Request{Op: "policy"})
	if !rep.OK || rep.Policy == nil || !rep.Policy.Enabled {
		t.Fatalf("policy reply %+v", rep.Policy)
	}
	if len(rep.Policy.Gates) != 2 {
		t.Fatalf("gates for %d classes, want 2 (student, dart): %+v", len(rep.Policy.Gates), rep.Policy.Gates)
	}
	if rep.Policy.Gates[0].Class != online.StudentClass || rep.Policy.Gates[1].Class != online.DartClass {
		t.Fatalf("gate classes %+v", rep.Policy.Gates)
	}
	if len(rep.Policy.Log) != 0 {
		t.Fatalf("fresh engine has %d decisions", len(rep.Policy.Log))
	}

	// Stream examples so a forced tabularization can run.
	streamForExamples(t, conn, br, l, "s1", 64)
	if rep := rpc(t, conn, br, Request{Op: "swap", Class: "dart"}); !rep.OK {
		t.Fatalf("forced dart swap blocked by the gate: %s", rep.Err)
	}

	rep = rpc(t, conn, br, Request{Op: "policy"})
	if len(rep.Policy.Log) != 1 {
		t.Fatalf("decision log after forced swap: %+v", rep.Policy.Log)
	}
	d := rep.Policy.Log[0]
	if d.Class != online.DartClass || d.Action != online.ActionAdmit || d.Version != 1 ||
		!strings.Contains(d.Reason, "forced") {
		t.Fatalf("forced decision line: %+v", d)
	}
	if d.Seq != 1 || d.Time.IsZero() {
		t.Fatalf("decision line missing seq/time: %+v", d)
	}
	if rep.Policy.Admitted != 1 {
		t.Fatalf("admitted counter %d, want 1", rep.Policy.Admitted)
	}

	// The stats verb carries the summary (gates, no log).
	st := rpc(t, conn, br, Request{Op: "stats"})
	if !st.OK || st.Stats.Policy == nil || !st.Stats.Policy.Enabled {
		t.Fatalf("stats policy summary %+v", st.Stats.Policy)
	}
	if st.Stats.Policy.Admitted != 1 || len(st.Stats.Policy.Log) != 0 {
		t.Fatalf("stats policy summary carries the wrong shape: %+v", st.Stats.Policy)
	}
	if st.Stats.Online == nil || st.Stats.Online.DartAttempts != 1 {
		t.Fatalf("online stats dart attempts: %+v", st.Stats.Online)
	}
	if rep := rpc(t, conn, br, Request{Op: "close", Session: "s1"}); !rep.OK {
		t.Fatalf("close: %s", rep.Err)
	}
}

// TestPolicyVerbDisabledAndAbsent: an ungated learner answers the verb with
// enabled=false (a valid state, not an error); no learner at all is an error.
func TestPolicyVerbDisabledAndAbsent(t *testing.T) {
	l := testLearner(t, "")
	l.Start()
	defer l.Stop()
	conn, _, stopSrv := startServer(t, Config{SimCfg: smallSimCfg(), Online: l})
	defer stopSrv()
	br := bufio.NewReader(conn)
	rep := rpc(t, conn, br, Request{Op: "policy"})
	if !rep.OK || rep.Policy == nil || rep.Policy.Enabled {
		t.Fatalf("policy on an ungated learner: %+v", rep.Policy)
	}
	st := rpc(t, conn, br, Request{Op: "stats"})
	if !st.OK || st.Stats.Policy != nil {
		t.Fatalf("ungated stats grew a policy section: %+v", st.Stats.Policy)
	}

	conn2, _, stopSrv2 := startServer(t, Config{SimCfg: smallSimCfg()})
	defer stopSrv2()
	br2 := bufio.NewReader(conn2)
	if rep := rpc(t, conn2, br2, Request{Op: "policy"}); rep.OK || rep.Err == "" {
		t.Fatalf("policy on a learner-less engine: %+v", rep)
	}
}

// TestPolicyRollbackUnderLoad is the rollback-under-load race matrix:
// sessions on all three serving classes stream concurrently while the policy
// engine rolls the dart class back on forced live divergence. Zero dropped
// and zero reordered accesses per session, later dart responses observe the
// reverted version, and the decision log holds the rollback with its
// agreement evidence. Run under -race this also proves ObserveLive's
// synchronization against the batcher goroutines.
func TestPolicyRollbackUnderLoad(t *testing.T) {
	l := testPolicyLearner(t, "", online.PolicyConfig{
		// Organic traffic must never trip the gate on its own: the injected
		// divergence (agreement ~0 against a huge window) is the only thing
		// that can cross a 1% threshold.
		DivergeThreshold: 0.01, DivergeWindows: 2, LiveWindow: 64,
		AdmitThreshold: 0.01, AdmitWindow: 1,
	})
	l.Start()
	defer l.Stop()
	pol := l.Policy()

	e := NewEngine(Config{SimCfg: smallSimCfg(), Online: l})
	classes := []string{"online", "student", "dart"}
	const perClass, n = 2, 1200
	sessions := perClass * len(classes)
	ids := make([]string, sessions)
	type obs struct{ seqs []uint64 }
	got := make([]obs, sessions)
	var mu sync.Mutex
	for i := 0; i < sessions; i++ {
		ids[i] = fmt.Sprintf("%s%d", classes[i%len(classes)], i)
		if err := e.Open(ids[i], classes[i%len(classes)], 4); err != nil {
			t.Fatal(err)
		}
	}

	// Once the streaming sessions fill the reservoir, publish two table
	// versions so there is something to roll back to, then force live
	// divergence until the policy engine reverts the dart class.
	// served is poked once per served access — the event that can move the
	// reservoir and the live gates — and closed when the replay is over.
	served := make(chan struct{}, 1)
	var responses sync.WaitGroup
	responses.Add(sessions * n)
	nextServed := func() bool { _, ok := <-served; return ok }
	dart := class(t, l, online.DartClass)
	seedDone := make(chan struct{})
	go func() {
		defer close(seedDone)
		if !waitOnEvents(nextServed, func() bool { return l.Stats().Examples >= 64 }) {
			t.Errorf("examples never assembled: %+v", l.Stats())
			return
		}
		if _, err := l.SwapDart(); err != nil {
			t.Errorf("dart v1: %v", err)
			return
		}
		if _, err := l.SwapDart(); err != nil {
			t.Errorf("dart v2: %v", err)
			return
		}
		// Force live divergence on whatever dart version serves: two
		// back-to-back windows at agreement ~0 per served access (an organic
		// window landing between them resets the streak, so retry) until
		// the policy engine rolls back.
		waitOnEvents(nextServed, func() bool {
			for i := 0; i < 2; i++ {
				pol.ObserveLive(online.DartClass, dart.Version(), 0, 64*100)
			}
			return pol.Stats().RolledBack > 0
		})
	}()

	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, rec := range sessionTrace(int64(i), n) {
				err := e.Submit(ids[i], rec, func(r Response) {
					mu.Lock()
					got[i].seqs = append(got[i].seqs, r.Seq)
					mu.Unlock()
					select {
					case served <- struct{}{}:
					default:
					}
					responses.Done()
				})
				if err != nil {
					t.Errorf("%s: %v", ids[i], err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	responses.Wait() // every callback has run: nothing can send on served any more
	close(served)
	<-seedDone

	st := pol.Stats()
	if st.RolledBack == 0 {
		t.Fatal("forced divergence never rolled the dart class back; the test proved nothing")
	}
	// The store reverted: two publishes, one rollback, serving the prior
	// good version again.
	if dart.Version() != 1 {
		t.Fatalf("dart serving v%d after 2 publishes and a rollback, want v1", dart.Version())
	}
	// A session opened after the rollback observes the reverted version on
	// every response.
	const m = 50
	if err := e.Open("post", "dart", 4); err != nil {
		t.Fatal(err)
	}
	var postVers []uint64
	for _, rec := range sessionTrace(77, m) {
		if err := e.Submit("post", rec, func(r Response) {
			mu.Lock()
			postVers = append(postVers, r.Version)
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	res := e.Drain()
	if len(postVers) != m {
		t.Fatalf("post-rollback session got %d responses, want %d", len(postVers), m)
	}
	// Version 0 marks responses before the session's first model query; every
	// actual table query after the rollback must serve the reverted v1.
	var queried int
	for j, v := range postVers {
		if v == 0 {
			continue
		}
		queried++
		if v != 1 {
			t.Fatalf("post-rollback response %d served dart v%d, want the reverted v1", j, v)
		}
	}
	if queried == 0 {
		t.Fatal("post-rollback session never queried the table; the check proved nothing")
	}
	if res["post"].Accesses != m {
		t.Fatalf("post-rollback session counted %d accesses, want %d", res["post"].Accesses, m)
	}
	var rollback *online.Decision
	for _, d := range pol.Decisions() {
		if d.Action == online.ActionRollback && d.Class == online.DartClass {
			d := d
			rollback = &d
		}
	}
	if rollback == nil {
		t.Fatalf("no rollback decision in the log: %+v", pol.Decisions())
	}
	if rollback.Agreement >= 0.01 || rollback.Labels == 0 ||
		!strings.Contains(rollback.Reason, "rolled back") {
		t.Fatalf("rollback evidence: %+v", rollback)
	}

	for i := 0; i < sessions; i++ {
		o := got[i]
		if len(o.seqs) != n {
			t.Fatalf("session %s: %d responses, want %d (dropped accesses)", ids[i], len(o.seqs), n)
		}
		for j, s := range o.seqs {
			if s != uint64(j+1) {
				t.Fatalf("session %s: response %d has seq %d (reordered)", ids[i], j, s)
			}
		}
		if res[ids[i]].Accesses != n {
			t.Fatalf("session %s result counted %d accesses, want %d", ids[i], res[ids[i]].Accesses, n)
		}
	}
}

// TestStudentLiveObservationFeedsPolicy: the student batcher feeds live
// agreement into the policy engine even with legacy ShadowCompare off, and
// the live gate tracks the served student version.
func TestStudentLiveObservationFeedsPolicy(t *testing.T) {
	l := testPolicyLearner(t, "", online.PolicyConfig{
		DivergeThreshold: 0.01, DivergeWindows: 1000, LiveWindow: 16,
	})
	l.Start()
	defer l.Stop()
	e := NewEngine(Config{SimCfg: smallSimCfg(), Online: l})
	if err := e.Open("s1", "student", 4); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, rec := range sessionTrace(9, 600) {
			if err := e.Submit("s1", rec, func(Response) {}); err != nil {
				t.Errorf("submit: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	e.Drain()

	st := l.Policy().Stats()
	var studentGate *online.GateState
	for i := range st.Gates {
		if st.Gates[i].Class == online.StudentClass {
			studentGate = &st.Gates[i]
		}
	}
	if studentGate == nil || studentGate.LiveVersion == 0 {
		t.Fatalf("student live gate never observed traffic: %+v", st.Gates)
	}
	if studentGate.LiveWindows == 0 {
		t.Fatalf("no live window completed over 600 accesses: %+v", *studentGate)
	}
}
