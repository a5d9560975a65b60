package serve

import (
	"bufio"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dart/internal/nn"
	"dart/internal/online"
	"dart/internal/tabular"
)

// testDartLearner is testStudentLearner with the dart (tabularized) tier
// enabled on a small deterministic kernel config.
func testDartLearner(t testing.TB, dir string) *online.Learner {
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
		Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestAllClassesHotSwapMidReplay is the cross-class race matrix: sessions
// pinned to all three serving classes (teacher "online", "student", "dart")
// stream concurrently while swap, rollback, and re-tabularize fire against
// every class. Zero dropped and zero reordered accesses per session — and
// after a drain + restart, every class recovers its newest good version from
// the shared checkpoint directory (the acceptance bar).
func TestAllClassesHotSwapMidReplay(t *testing.T) {
	dir := t.TempDir()
	l := testDartLearner(t, dir)
	l.Start()

	e := NewEngine(Config{SimCfg: smallSimCfg(), Online: l})
	classes := []string{"online", "student", "dart"}
	const perClass, n = 2, 1500
	sessions := perClass * len(classes)
	type obs struct{ seqs []uint64 }
	got := make([]obs, sessions)
	var mu sync.Mutex
	ids := make([]string, sessions)
	for i := 0; i < sessions; i++ {
		ids[i] = fmt.Sprintf("%s%d", classes[i%len(classes)], i)
		if err := e.Open(ids[i], classes[i%len(classes)], 4); err != nil {
			t.Fatal(err)
		}
	}

	// Hammer every class's swap and rollback paths while the replay runs.
	// Early dart swaps fail until the reservoir fills, and rollbacks fail
	// until a class holds two versions — both are expected and retried.
	stop := make(chan struct{})
	var dartSwaps atomic.Uint64
	var hammerWG sync.WaitGroup
	hammerWG.Add(1)
	rows := l.Classes()
	go func() {
		defer hammerWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(4 * time.Millisecond):
			}
			// Swap every class in turn, then roll every class back in turn.
			c := rows[i%len(rows)]
			if i/len(rows)%2 == 1 {
				c.Rollback()
			} else if _, err := c.Swap(); err == nil && c.Name() == online.DartClass {
				dartSwaps.Add(1)
			}
		}
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
				})
				if err != nil {
					t.Errorf("%s: %v", ids[i], err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	res := e.Drain()
	close(stop)
	hammerWG.Wait()

	if dartSwaps.Load() == 0 {
		t.Fatal("no dart table was ever published mid-replay; the test proved nothing")
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
	if st := l.Stats(); st.Sessions != 0 {
		t.Fatalf("%d taps still attached after drain", st.Sessions)
	}
	l.Stop()

	// Restart: all three classes recover their newest good version from the
	// shared directory.
	l2 := testDartLearner(t, dir)
	for i, c := range l2.Classes() {
		if want := rows[i].Version(); want == 0 || c.Version() != want {
			t.Fatalf("%s recovered v%d, want v%d", c.Name(), c.Version(), want)
		}
	}
}

// TestDartInferFallsBackToStudent: while no table version exists, the dart
// inference path must serve the published student and report the student's
// version instead of failing, and must track student publishes.
func TestDartInferFallsBackToStudent(t *testing.T) {
	l := testDartLearner(t, "") // no table published yet
	e := NewEngine(Config{Online: l})
	defer e.Drain()
	checkSourceFallback(t, e.classes["dart"], class(t, l, online.StudentClass))
}

// TestDartProtocolVerbs drives the dart class selector and the classes verb
// over a real socket: dart sessions stream (their taps feed the reservoir),
// swap with class "dart" force-tabularizes, classes lists all three tiers,
// rollback reverts the table, and the teacher/student sequences stay put.
func TestDartProtocolVerbs(t *testing.T) {
	l := testDartLearner(t, "")
	l.Start()
	defer l.Stop()
	conn, _, stopSrv := startServer(t, Config{SimCfg: smallSimCfg(), Online: l})
	defer stopSrv()
	br := bufio.NewReader(conn)

	streamForExamples(t, conn, br, l, "s1", 64)

	// Before any table exists the model verb reports dart v0.
	mo := rpc(t, conn, br, Request{Op: "model", Class: "dart"})
	if !mo.OK || mo.Online == nil || mo.Online.DartVersion != 0 {
		t.Fatalf("model reply %+v", mo.Online)
	}
	teacherBefore, studentBefore := mo.Online.Version, mo.Online.StudentVersion

	sw := rpc(t, conn, br, Request{Op: "swap", Class: "dart"})
	if !sw.OK || sw.Version != 1 {
		t.Fatalf("dart swap reply %+v", sw)
	}
	if sw.Online.Version != teacherBefore || sw.Online.StudentVersion != studentBefore {
		t.Fatalf("dart swap moved a model class: %+v", sw.Online)
	}
	if sw.Online.Tabularized != 1 || sw.Online.DartPublished != 1 {
		t.Fatalf("tabularizer counters did not move: %+v", sw.Online)
	}

	cl := rpc(t, conn, br, Request{Op: "classes"})
	if !cl.OK || len(cl.Classes) != 3 {
		t.Fatalf("classes reply %+v", cl.Classes)
	}
	byName := map[string]ClassReply{}
	for _, c := range cl.Classes {
		byName[c.Class] = c
	}
	if byName["dart"].Version != 1 || byName["dart"].Published != 1 {
		t.Fatalf("dart class row %+v", byName["dart"])
	}
	if byName["teacher"].Version != teacherBefore || byName["student"].Version != studentBefore {
		t.Fatalf("class rows %+v", byName)
	}
	if byName["dart"].Latency <= 0 || byName["dart"].StorageBytes <= 0 {
		t.Fatalf("dart class has no cost model: %+v", byName["dart"])
	}

	// Second swap then rollback: the table sequence moves independently.
	if rep := rpc(t, conn, br, Request{Op: "swap", Class: "dart"}); !rep.OK || rep.Version != 2 {
		t.Fatalf("second dart swap reply %+v", rep)
	}
	rb := rpc(t, conn, br, Request{Op: "rollback", Class: "dart"})
	if !rb.OK || rb.Version != 1 {
		t.Fatalf("dart rollback reply %+v", rb)
	}

	if rep := rpc(t, conn, br, Request{Op: "close", Session: "s1"}); !rep.OK {
		t.Fatalf("close failed: %s", rep.Err)
	}
}

// TestDartVerbsWithoutTier: the dart class selector must fail cleanly on a
// learner without the tier, "dart" sessions must not open against it (no
// static model either), and the classes verb must list only the tiers that
// exist.
func TestDartVerbsWithoutTier(t *testing.T) {
	l := testLearner(t, "")
	l.Start()
	defer l.Stop()
	conn, _, stopSrv := startServer(t, Config{SimCfg: smallSimCfg(), Online: l})
	defer stopSrv()
	br := bufio.NewReader(conn)
	for _, op := range []string{"model", "swap", "rollback"} {
		rep := rpc(t, conn, br, Request{Op: op, Class: "dart"})
		if rep.OK || rep.Err == "" {
			t.Fatalf("%s class=dart on a tier-less learner: %+v", op, rep)
		}
	}
	if rep := rpc(t, conn, br, Request{Op: "open", Session: "x", Prefetcher: "dart"}); rep.OK {
		t.Fatal("dart session opened without a dart tier or static model")
	}
	cl := rpc(t, conn, br, Request{Op: "classes"})
	if !cl.OK || len(cl.Classes) != 1 || cl.Classes[0].Class != "teacher" {
		t.Fatalf("classes on a teacher-only learner: %+v", cl.Classes)
	}
}

// TestClassesVerbWithoutLearner: classes must fail cleanly with no learner.
func TestClassesVerbWithoutLearner(t *testing.T) {
	conn, _, stopSrv := startServer(t, Config{SimCfg: smallSimCfg()})
	defer stopSrv()
	br := bufio.NewReader(conn)
	rep := rpc(t, conn, br, Request{Op: "classes"})
	if rep.OK || rep.Err == "" {
		t.Fatalf("classes on a learner-less engine: %+v", rep)
	}
}
