package online

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"dart/internal/dataprep"
	"dart/internal/nn"
	"dart/internal/sim"
	"dart/internal/trace"
)

// tinyData keeps windows small so short traces yield many examples.
func tinyData() dataprep.Config {
	return dataprep.Config{History: 4, SegmentBits: 6, Segments: 4, LookForward: 4, DeltaRange: 8}
}

// tinyArch is a minimal predictor over tinyData shapes.
func tinyArch(data dataprep.Config) func() nn.Layer {
	return func() nn.Layer {
		rng := rand.New(rand.NewSource(11))
		return nn.NewTransformerPredictor(nn.TransformerConfig{
			T: data.History, DIn: data.InputDim(),
			DModel: 8, DFF: 16, DOut: data.OutputDim(), Heads: 2, Layers: 1,
		}, rng)
	}
}

func testRecords(seed int64, n int) []trace.Record {
	return trace.Generate(trace.AppSpec{
		Name: "online", Pages: 64, Streams: 2,
		Strides: []int64{1, 3}, IrregularFrac: 0.1, Seed: seed,
	}, n)
}

func TestRingPushDrain(t *testing.T) {
	r := NewRing(7) // rounds up to 8
	if r.Cap() != 8 {
		t.Fatalf("cap %d, want 8", r.Cap())
	}
	for i := 0; i < 8; i++ {
		if !r.Push(Event{Access: sim.Access{InstrID: uint64(i)}}) {
			t.Fatalf("push %d rejected", i)
		}
	}
	if r.Push(Event{}) {
		t.Fatal("push into a full ring accepted")
	}
	if r.Dropped() != 1 {
		t.Fatalf("dropped %d, want 1", r.Dropped())
	}
	var got []uint64
	n := r.Drain(func(ev Event) { got = append(got, ev.Access.InstrID) })
	if n != 8 || len(got) != 8 {
		t.Fatalf("drained %d events", n)
	}
	for i, id := range got {
		if id != uint64(i) {
			t.Fatalf("event %d has InstrID %d: order lost", i, id)
		}
	}
	if r.Drain(func(Event) {}) != 0 {
		t.Fatal("empty ring drained events")
	}
	// Wrap-around reuse.
	for round := 0; round < 5; round++ {
		for i := 0; i < 5; i++ {
			r.Push(Event{Access: sim.Access{InstrID: uint64(round*5 + i)}})
		}
		want := uint64(round * 5)
		r.Drain(func(ev Event) {
			if ev.Access.InstrID != want {
				t.Fatalf("wrap round %d: got %d want %d", round, ev.Access.InstrID, want)
			}
			want++
		})
	}
}

// TestRingConcurrent hammers the SPSC pair; run under -race this proves the
// producer and consumer synchronise correctly through the atomics alone.
func TestRingConcurrent(t *testing.T) {
	r := NewRing(64)
	const n = 200000
	done := make(chan uint64)
	go func() {
		var next, seen uint64
		for seen < n {
			drained := uint64(r.Drain(func(ev Event) {
				if ev.Access.InstrID != next {
					t.Errorf("out of order: got %d want %d", ev.Access.InstrID, next)
				}
				next++
			}))
			seen += drained
			if drained == 0 {
				runtime.Gosched() // empty ring: let the producer run
			}
		}
		done <- seen
	}()
	for i := uint64(0); i < n; {
		if r.Push(Event{Access: sim.Access{InstrID: i}}) {
			i++
		} else {
			runtime.Gosched() // full ring: let the consumer run
		}
	}
	if seen := <-done; seen != n {
		t.Fatalf("consumer saw %d events, want %d", seen, n)
	}
	if r.Dropped() == 0 {
		t.Log("note: ring never filled (no drops exercised)")
	}
}

// TestBuilderMatchesDataprep: the streaming builder must produce exactly the
// samples of the offline dataprep on the same records — inputs and labels,
// bit for bit, in order.
func TestBuilderMatchesDataprep(t *testing.T) {
	cfg := tinyData()
	recs := testRecords(3, 400)
	ds, err := dataprep.Build(recs, cfg)
	if err != nil {
		t.Fatal(err)
	}

	b := newBuilder(cfg)
	var got []example
	for _, r := range recs {
		b.observe(sim.Access{InstrID: r.InstrID, PC: r.PC, Block: r.Block()},
			func(ex example) { got = append(got, ex) })
	}
	// The builder emits every dataprep sample plus exactly one more: the
	// final trigger, which dataprep's n = len-H-LF sizing leaves off even
	// though its look-forward window fits.
	if len(got) != ds.X.N+1 {
		t.Fatalf("builder emitted %d examples, dataprep has %d", len(got), ds.X.N)
	}
	got = got[:ds.X.N]
	for s, ex := range got {
		wantX := ds.X.Sample(s).Data
		wantY := ds.Y.Sample(s).Data
		if len(ex.x) != len(wantX) || len(ex.y) != len(wantY) {
			t.Fatalf("sample %d shape mismatch", s)
		}
		for i, v := range wantX {
			if ex.x[i] != v {
				t.Fatalf("sample %d input[%d] = %v, dataprep %v", s, i, ex.x[i], v)
			}
		}
		for i, v := range wantY {
			if ex.y[i] != v {
				t.Fatalf("sample %d label[%d] = %v, dataprep %v", s, i, ex.y[i], v)
			}
		}
	}
}

// TestLearnerTrainsAndSwaps drives the full loop: events in, examples
// assembled, optimizer steps taken, forced swap publishes a new version,
// and the published checkpoint round-trips bit-identically.
func TestLearnerTrainsAndSwaps(t *testing.T) {
	data := tinyData()
	dir := t.TempDir()
	l, err := NewLearner(Config{
		Data: data, New: tinyArch(data), Dir: dir,
		BatchSize: 8, Tick: time.Millisecond, SwapInterval: -1, Duty: 1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := class(t, l, TeacherClass).Store().Load(); v == nil || v.Version != 1 {
		t.Fatalf("initial version %+v, want v1", v)
	}

	ring := l.Attach("s0")
	l.Start()
	recs := testRecords(9, 1500)
	for i, r := range recs {
		ev := Event{Access: sim.Access{InstrID: r.InstrID, PC: r.PC, Block: r.Block()}}
		if i%3 == 0 {
			ev.HasFB = true
			ev.Feedback = sim.Feedback{Block: r.Block(), Kind: sim.FeedbackUseful}
		}
		for !ring.Push(ev) {
			runtime.Gosched() // full ring: let the loop drain it
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for l.Stats().Steps == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no optimizer steps after 10s: %+v", l.Stats())
		}
		runtime.Gosched()
	}

	m, err := l.Swap()
	if err != nil {
		t.Fatal(err)
	}
	if m < 2 {
		t.Fatalf("swap published v%d, want ≥2", m)
	}
	if cur := class(t, l, TeacherClass).Store().Load(); cur.Version != m {
		t.Fatalf("serving v%d after swap to v%d", cur.Version, m)
	}

	st := l.Stats()
	if st.Ingested == 0 || st.Examples == 0 || st.Useful == 0 || st.Trained == 0 {
		t.Fatalf("stats did not move: %+v", st)
	}
	l.Detach("s0")
	l.Stop()

	// The published version must round-trip through disk bit-identically.
	reloaded, err := NewModelStore(tinyArch(data), dir, "")
	if err != nil {
		t.Fatal(err)
	}
	got := reloaded.Load()
	if got == nil {
		t.Fatal("no checkpoint recovered")
	}
	cur := class(t, l, TeacherClass).Store().Load()
	if got.Version != cur.Version {
		t.Fatalf("recovered v%d, serving v%d", got.Version, cur.Version)
	}
	gp, cp := got.Val.Params(), cur.Val.Params()
	for i := range gp {
		for j, v := range cp[i].W.Data {
			if gp[i].W.Data[j] != v {
				t.Fatalf("param %q[%d] differs after save→load round trip", cp[i].Name, j)
			}
		}
	}
}

// TestLearnerRollback: rollback must repoint serving to the previous version
// and reset the shadow to it.
func TestLearnerRollback(t *testing.T) {
	data := tinyData()
	l, err := NewLearner(Config{Data: data, New: tinyArch(data), SwapInterval: -1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := class(t, l, TeacherClass).Rollback(); err == nil {
		t.Fatal("rollback with a single version accepted")
	}
	v2, err := l.Swap()
	if err != nil {
		t.Fatal(err)
	}
	if v2 != 2 {
		t.Fatalf("swap gave v%d, want 2", v2)
	}
	back, err := class(t, l, TeacherClass).Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if back != 1 || class(t, l, TeacherClass).Version() != 1 {
		t.Fatalf("rollback landed on v%d (serving v%d), want 1", back, class(t, l, TeacherClass).Version())
	}
	// Next publish continues the version sequence.
	v3, err := l.Swap()
	if err != nil {
		t.Fatal(err)
	}
	if v3 != 3 {
		t.Fatalf("post-rollback publish gave v%d, want 3", v3)
	}
}

// TestLearnerWarmStart: Init weights must seed both the shadow and v1.
func TestLearnerWarmStart(t *testing.T) {
	data := tinyData()
	init := tinyArch(data)()
	for _, p := range init.Params() {
		for i := range p.W.Data {
			p.W.Data[i] = float64(i%13) * 0.01
		}
	}
	l, err := NewLearner(Config{Data: data, New: tinyArch(data), Init: init, SwapInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	sp := class(t, l, TeacherClass).Store().Load().Val.Params()
	ip := init.Params()
	for i := range ip {
		for j, v := range ip[i].W.Data {
			if sp[i].W.Data[j] != v {
				t.Fatalf("v1 param %q[%d] not warm-started", ip[i].Name, j)
			}
		}
	}
}

// TestStopWithoutStart: Stop on a learner whose loop never ran must return
// after its final flush instead of waiting for a loop that does not exist.
func TestStopWithoutStart(t *testing.T) {
	data := tinyData()
	l, err := NewLearner(Config{
		Data: data, New: tinyArch(data), BatchSize: 8, SwapInterval: -1, Duty: 1, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	fillReservoir(l, 16)
	l.maybeTrain()
	stopped := make(chan struct{})
	go func() {
		l.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop on a never-started learner did not return")
	}
	if got := class(t, l, TeacherClass).Version(); got != 2 {
		t.Fatalf("final flush left the teacher at v%d, want 2", got)
	}
}

// TestStopKeepsHeldCandidate: under the promotion policy, a student candidate
// the gate held must not be flushed at shutdown — not into the store and not
// into the checkpoint directory a restarted learner recovers from — and the
// shutdown records why. The teacher's final flush is logged like its
// auto-publishes.
func TestStopKeepsHeldCandidate(t *testing.T) {
	dir := t.TempDir()
	cfg := policyLearnerConfig(dir, PolicyConfig{AdmitWindow: 1, AdmitThreshold: 1})
	cfg.DistillInterval = time.Nanosecond
	l, err := NewLearner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillReservoir(l, 64)
	l.maybeTrain() // one distill step; the gate holds the candidate
	ds := l.Policy().Decisions()
	if len(ds) != 1 || ds[0].Class != StudentClass || ds[0].Action != ActionHold {
		t.Fatalf("gate decisions after one tick: %+v", ds)
	}
	l.Start()
	l.Stop()
	if got := class(t, l, StudentClass).Version(); got != 1 {
		t.Fatalf("shutdown published the held student as v%d", got)
	}
	ds = l.Policy().Decisions()
	var teacher, student bool
	for _, d := range ds[1:] {
		switch {
		case d.Class == TeacherClass && d.Action == ActionAdmit && d.Version == 2:
			teacher = true
		case d.Class == StudentClass && d.Action != ActionAdmit && d.Version == 0 && d.Reason != "":
			student = true
		}
	}
	if !teacher || !student {
		t.Fatalf("shutdown decisions %+v, want the teacher's flush and the student's reason", ds[1:])
	}

	l2, err := NewLearner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := class(t, l2, StudentClass).Version(); got != 1 {
		t.Fatalf("restarted learner serves student v%d, want v1", got)
	}
	if got := class(t, l2, TeacherClass).Version(); got != 2 {
		t.Fatalf("restarted learner serves teacher v%d, want the flushed v2", got)
	}
}
