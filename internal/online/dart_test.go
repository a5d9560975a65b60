package online

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"dart/internal/mat"
	"dart/internal/nn"
	"dart/internal/sim"
	"dart/internal/tabular"
)

// dartLearnerConfig is studentLearnerConfig plus the dart tier with a small,
// deterministic tabularization config and manual-only publish cadence.
func dartLearnerConfig(dir string) Config {
	cfg := studentLearnerConfig(dir)
	cfg.Dart = true
	cfg.Tabular = tinyTabularCfg()
	cfg.TabularizeInterval = -1
	cfg.DartSamples = 32
	return cfg
}

// streamExamples pushes synthetic access rounds through an attached ring
// until the learner has assembled at least want examples.
func streamExamples(t *testing.T, l *Learner, ring *Ring, want uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for round := int64(0); l.Stats().Examples < want; round++ {
		for i, r := range testRecords(31+round, 400) {
			ev := Event{Access: sim.Access{InstrID: r.InstrID, PC: r.PC, Block: r.Block()}}
			if i%4 == 0 {
				ev.HasFB = true
				ev.Feedback = sim.Feedback{Block: r.Block(), Kind: sim.FeedbackUseful}
			}
			for !ring.Push(ev) {
				time.Sleep(time.Millisecond)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("examples never assembled: %+v", l.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLearnerTabularizesDart drives the full dart tier: streamed events fill
// the reservoir, a forced SwapDart tabularizes the published student and
// publishes table v1 (class-stamped, source-stamped), stats and the classes
// listing move, rollback reverts, and the published table recovers from its
// checkpoint bit-identically.
func TestLearnerTabularizesDart(t *testing.T) {
	dir := t.TempDir()
	l, err := NewLearner(dartLearnerConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !hasClass(l, DartClass) {
		t.Fatal("dart tier not enabled")
	}
	dart := class(t, l, DartClass)
	if dart.Tables().Load() != nil {
		t.Fatal("a table served before anything was tabularized")
	}
	// Before the first publish the dart cost model falls back to the
	// student's numbers.
	dl, ds := dart.Cost()
	if sl, ss := dart.Source().Cost(); dl != sl || ds != ss {
		t.Fatalf("pre-publish dart cost (%d, %d) is not the student fallback (%d, %d)", dl, ds, sl, ss)
	}

	ring := l.Attach("s0")
	l.Start()
	streamExamples(t, l, ring, 64)

	if v, err := l.SwapDart(); err != nil || v != 1 {
		t.Fatalf("first swap: v%d, %v", v, err)
	}
	tab := dart.Tables().Load()
	if tab == nil || tab.Version != 1 || tab.Meta.Class != DartClass {
		t.Fatalf("serving %+v after swap, want v1 class %q", tab, DartClass)
	}
	if want := class(t, l, StudentClass).Version(); tab.Meta.Source != want {
		t.Fatalf("table source v%d, want published student v%d", tab.Meta.Source, want)
	}
	// The analytic cost of the published hierarchy replaces the fallback.
	dl, ds = dart.Cost()
	if c := tab.H.Cost(); dl != c.LatencyCycles || ds != c.StorageBytes() {
		t.Fatalf("dart cost (%d, %d) != published hierarchy cost (%d, %d)",
			dl, ds, c.LatencyCycles, c.StorageBytes())
	}
	st := l.Stats()
	if st.DartVersion != 1 || st.DartPublished != 1 || st.Tabularized != 1 || st.TabularizeMs <= 0 {
		t.Fatalf("dart stats did not move: %+v", st)
	}
	// Teacher and student sequences are untouched by table publishes.
	if class(t, l, TeacherClass).Version() != 1 || class(t, l, StudentClass).Version() != 1 {
		t.Fatalf("model classes moved on a table publish: teacher v%d student v%d",
			class(t, l, TeacherClass).Version(), class(t, l, StudentClass).Version())
	}

	// Classes lists all three tiers with their versions.
	classes := l.Classes()
	if len(classes) != 3 {
		t.Fatalf("classes %+v, want 3 entries", classes)
	}
	for i, want := range []string{TeacherClass, StudentClass, DartClass} {
		if c := classes[i]; c.Name() != want || c.Version() != 1 {
			t.Fatalf("class row %d is %s v%d, want %s v1", i, c.Name(), c.Version(), want)
		}
	}
	if dart.Published() != 1 || len(dart.Versions()) != 1 {
		t.Fatalf("dart class row: published %d, versions %v", dart.Published(), dart.Versions())
	}

	// A second swap publishes v2; rollback reverts to v1.
	if v, err := l.SwapDart(); err != nil || v != 2 {
		t.Fatalf("second swap: v%d, %v", v, err)
	}
	back, err := dart.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if back != 1 || dart.Version() != 1 {
		t.Fatalf("rollback landed on v%d", back)
	}

	l.Detach("s0")
	l.Stop()

	// The served table recovers from its checkpoint bit-identically, and a
	// fresh learner over the same dir serves it immediately (no fallback).
	rec, err := NewTableStore(dir, DartClass)
	if err != nil {
		t.Fatal(err)
	}
	got := rec.Load()
	if got == nil || got.Version != 1 {
		t.Fatalf("recovered %+v, want v1", got)
	}
	sameTableBatches(t, class(t, l, DartClass).Tables().Load().H, got.H)

	l2, err := NewLearner(dartLearnerConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if class(t, l2, DartClass).Tables().Load() == nil || class(t, l2, DartClass).Version() != 1 {
		t.Fatalf("restarted learner serves %+v, want table v1", class(t, l2, DartClass).Tables().Load())
	}
	sameTableBatches(t, class(t, l, DartClass).Tables().Load().H, class(t, l2, DartClass).Tables().Load().H)
}

// TestDartAutoTabularizeDutyCycle: with a tiny interval, the loop publishes
// a first table on its own, then re-publishes only after the student class
// changes (an unchanged student is skipped, a swapped one is picked up).
func TestDartAutoTabularizeDutyCycle(t *testing.T) {
	cfg := dartLearnerConfig(t.TempDir())
	cfg.TabularizeInterval = 2 * time.Millisecond
	l, err := NewLearner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ring := l.Attach("s0")
	l.Start()
	defer l.Stop()
	streamExamples(t, l, ring, 64)

	deadline := time.Now().Add(15 * time.Second)
	for l.Stats().DartVersion == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("duty cycle never published a table: %+v", l.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	v1 := class(t, l, DartClass).Tables().Load()
	if v1.Meta.Source != class(t, l, StudentClass).Version() {
		t.Fatalf("auto table source v%d, student v%d", v1.Meta.Source, class(t, l, StudentClass).Version())
	}

	// Unchanged student: the duty cycle must idle rather than republish.
	time.Sleep(20 * time.Millisecond)
	if got := class(t, l, DartClass).Version(); got != v1.Version {
		t.Fatalf("duty cycle republished an unchanged student (v%d -> v%d)", v1.Version, got)
	}

	// A student publish wakes the next cycle into a fresh table.
	if _, err := l.SwapStudent(); err != nil {
		t.Fatal(err)
	}
	for class(t, l, DartClass).Version() == v1.Version {
		if time.Now().After(deadline) {
			t.Fatalf("duty cycle never picked up the new student: %+v", l.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := class(t, l, DartClass).Tables().Load(); got.Meta.Source != class(t, l, StudentClass).Version() {
		t.Fatalf("re-tabularized from student v%d, want v%d", got.Meta.Source, class(t, l, StudentClass).Version())
	}
	l.Detach("s0")
}

// TestDartParityWithOfflineTabularization is the parity satellite at the
// store level: a hierarchy recovered from its checkpoint must serve batches
// bit-identical to the in-memory hierarchy it was published from, and to
// what core's offline path (a direct tabular.Tabularize of the same student
// weights over the same fit set) produces.
func TestDartParityWithOfflineTabularization(t *testing.T) {
	dir := t.TempDir()
	data := tinyData()
	student := tinyStudentArch(tinyTeacherCfg)()
	rng := rand.New(rand.NewSource(123))
	fit := mat.NewTensor(32, data.History, data.InputDim())
	for i := range fit.Data {
		fit.Data[i] = rng.NormFloat64()
	}
	cfg := tinyTabularCfg()

	// The "online" leg: tabularize and publish through the versioned store.
	published := tabular.Tabularize(student.(*nn.Sequential), fit, cfg).Hierarchy
	s, err := NewTableStore(dir, DartClass)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Publish(published, nn.CheckpointMeta{Source: 1}); err != nil {
		t.Fatal(err)
	}

	// The recovery leg: a fresh store scan reads the checkpoint back.
	rec, err := NewTableStore(dir, DartClass)
	if err != nil {
		t.Fatal(err)
	}
	recovered := rec.Load()
	if recovered == nil {
		t.Fatal("nothing recovered")
	}

	// The offline leg: the same student weights, copied into a fresh
	// network exactly as core's pipeline would hold them, tabularized with
	// the same fit set and config.
	clone := tinyStudentArch(tinyTeacherCfg)()
	if err := nn.CopyParams(clone, student); err != nil {
		t.Fatal(err)
	}
	offline := tabular.Tabularize(clone.(*nn.Sequential), fit, cfg).Hierarchy

	sameTableBatches(t, published, recovered.H)
	sameTableBatches(t, published, offline)
}

// TestDartConfigValidation: the dart tier requires the student tier, swap
// verbs fail cleanly without the tier, and tabularization refuses to run on
// an empty reservoir.
func TestDartConfigValidation(t *testing.T) {
	data := tinyData()
	bad := Config{Data: data, New: tinyArch(data), Dart: true, SwapInterval: -1, Seed: 2}
	if _, err := NewLearner(bad); err == nil || !strings.Contains(err.Error(), "Student") {
		t.Fatalf("dart without student accepted (err %v)", err)
	}

	noTier, err := NewLearner(Config{Data: data, New: tinyArch(data), SwapInterval: -1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if c, err := noTier.Class(DartClass); err == nil || c != nil || len(noTier.Classes()) != 1 {
		t.Fatalf("dart tier reported on a learner without one: %v, %v", c, err)
	}
	if _, err := noTier.SwapDart(); err == nil {
		t.Fatal("SwapDart succeeded without a tier")
	}

	empty, err := NewLearner(dartLearnerConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.SwapDart(); err == nil || !strings.Contains(err.Error(), "not enough examples") {
		t.Fatalf("tabularization on an empty reservoir: %v", err)
	}
}
