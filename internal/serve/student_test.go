package serve

import (
	"bufio"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dart/internal/mat"
	"dart/internal/nn"
	"dart/internal/online"
)

// testStudentLearner is testLearner with the distilled-student tier enabled
// on a StudentConfig-shrunk architecture.
func testStudentLearner(t testing.TB, dir string) *online.Learner {
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
		Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestStudentHotSwapMidReplay is the student-tier acceptance test: while
// concurrent student sessions stream accesses, the student model class is
// force-published repeatedly. Zero dropped, zero reordered accesses; the
// student versions tagged on responses must be non-decreasing and must span
// at least two published versions (the hot swap really landed mid-replay).
func TestStudentHotSwapMidReplay(t *testing.T) {
	l := testStudentLearner(t, t.TempDir())
	l.Start()
	defer l.Stop()

	e := NewEngine(Config{SimCfg: smallSimCfg(), Online: l})
	const sessions, n = 4, 2000
	type obs struct {
		seqs []uint64
		vers []uint64
	}
	got := make([]obs, sessions)
	var mu sync.Mutex

	for i := 0; i < sessions; i++ {
		if err := e.Open(fmt.Sprintf("s%d", i), "student", 4); err != nil {
			t.Fatal(err)
		}
	}

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
				if _, err := l.SwapStudent(); err != nil {
					t.Errorf("swap student: %v", err)
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
		t.Fatal("no student swap happened mid-replay; the test proved nothing")
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
				t.Fatalf("session %d: student version went backwards at response %d (%d after %d)", i, j, v, prev)
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
		t.Fatalf("sessions observed student versions %v: hot swap never picked up mid-replay", distinct)
	}
	if st := l.Stats(); st.Sessions != 0 {
		t.Fatalf("%d taps still attached after drain", st.Sessions)
	}
}

// TestStudentInferFallsBackToTeacher: with no student version available, the
// student inference path must serve the published teacher and report the
// teacher's version instead of failing.
func TestStudentInferFallsBackToTeacher(t *testing.T) {
	l := testLearner(t, "") // teacher only; its v1 is published
	e := NewEngine(Config{Online: l})
	defer e.Drain()
	// The student class always holds a version once its tier is configured,
	// so the fallback is driven through a class that never publishes.
	teacher := class(t, l, online.TeacherClass)
	e.addClass("empty", &servingClass{name: "empty", data: l.Data(), cost: teacher.Cost},
		func(*mat.Tensor) (*mat.Tensor, uint64, bool) { return nil, 0, false }, teacher, nil)
	checkSourceFallback(t, e.classes["empty"], teacher)
}

// TestShadowCompareAgreement pins the A/B math: when student and teacher are
// the same architecture with identical parameters (and no training runs),
// every label must agree — rate exactly 1 — and the stats must count every
// compared batch and label.
func TestShadowCompareAgreement(t *testing.T) {
	data := onlineTestData()
	l, err := online.NewLearner(online.Config{
		Data: data, New: onlineTestArch(data),
		Student:         onlineTestArch(data), // same arch, same fixed seed: identical params
		BatchSize:       8,
		SwapInterval:    -1,
		DistillInterval: -1,
		Seed:            3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Learner deliberately not Started: no training perturbs the twins.
	e := NewEngine(Config{SimCfg: smallSimCfg(), Online: l, ShadowCompare: true})
	if err := e.Open("s", "student", 4); err != nil {
		t.Fatal(err)
	}
	for _, rec := range sessionTrace(9, 600) {
		if err := e.Submit("s", rec, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := func() Stats { // stats after drain keeps the accumulators
		e.Drain()
		return e.StatsSnapshot()
	}()
	if st.AB == nil {
		t.Fatal("shadow-compare enabled but Stats.AB is nil")
	}
	if st.AB.Batches == 0 || st.AB.Labels == 0 {
		t.Fatalf("nothing compared: %+v", st.AB)
	}
	if st.AB.Rate != 1 {
		t.Fatalf("identical models disagree: rate %v (%d/%d)", st.AB.Rate, st.AB.Agree, st.AB.Labels)
	}
	if st.AB.Labels%uint64(data.OutputDim()) != 0 {
		t.Fatalf("labels %d not a multiple of the bitmap width %d", st.AB.Labels, data.OutputDim())
	}
}

// TestStudentProtocolVerbs drives the model-class selector over a real
// socket: swap/rollback with class "student" move the student sequence and
// leave the teacher's untouched, stats carry the A/B section, and an unknown
// class fails cleanly.
func TestStudentProtocolVerbs(t *testing.T) {
	l := testStudentLearner(t, "")
	l.Start()
	defer l.Stop()
	conn, _, stopSrv := startServer(t, Config{SimCfg: smallSimCfg(), Online: l, ShadowCompare: true})
	defer stopSrv()
	br := bufio.NewReader(conn)

	if rep := rpc(t, conn, br, Request{Op: "open", Session: "s1", Prefetcher: "student", Degree: 4}); !rep.OK {
		t.Fatalf("open student session failed: %s", rep.Err)
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

	mo := rpc(t, conn, br, Request{Op: "model", Class: "student"})
	if !mo.OK || mo.Online == nil || mo.Online.StudentVersion == 0 {
		t.Fatalf("model reply %+v", mo.Online)
	}
	teacherBefore := mo.Online.Version
	studentBefore := mo.Online.StudentVersion

	sw := rpc(t, conn, br, Request{Op: "swap", Class: "student"})
	if !sw.OK || sw.Version != studentBefore+1 {
		t.Fatalf("student swap reply %+v (was student v%d)", sw, studentBefore)
	}
	if sw.Online.Version != teacherBefore {
		t.Fatalf("student swap moved the teacher: v%d -> v%d", teacherBefore, sw.Online.Version)
	}
	rb := rpc(t, conn, br, Request{Op: "rollback", Class: "student"})
	if !rb.OK || rb.Version != studentBefore {
		t.Fatalf("student rollback reply %+v (want student v%d)", rb, studentBefore)
	}

	if rep := rpc(t, conn, br, Request{Op: "swap", Class: "nonsense"}); rep.OK || rep.Err == "" {
		t.Fatalf("unknown class accepted: %+v", rep)
	}

	st := rpc(t, conn, br, Request{Op: "stats"})
	if !st.OK || st.Stats == nil || st.Stats.AB == nil || st.Stats.AB.Labels == 0 {
		t.Fatalf("stats reply has no A/B section: %+v", st.Stats)
	}
	if rep := rpc(t, conn, br, Request{Op: "close", Session: "s1"}); !rep.OK {
		t.Fatalf("close failed: %s", rep.Err)
	}
}

// TestStudentVerbsWithoutTier: the class selector must fail cleanly when the
// learner has no student tier, and "student" sessions must not open.
func TestStudentVerbsWithoutTier(t *testing.T) {
	l := testLearner(t, "")
	l.Start()
	defer l.Stop()
	conn, _, stopSrv := startServer(t, Config{SimCfg: smallSimCfg(), Online: l})
	defer stopSrv()
	br := bufio.NewReader(conn)
	for _, op := range []string{"model", "swap", "rollback"} {
		rep := rpc(t, conn, br, Request{Op: op, Class: "student"})
		if rep.OK || rep.Err == "" {
			t.Fatalf("%s class=student on a tier-less learner: %+v", op, rep)
		}
	}
	if rep := rpc(t, conn, br, Request{Op: "open", Session: "x", Prefetcher: "student"}); rep.OK {
		t.Fatal("student session opened without a student tier")
	}
}
