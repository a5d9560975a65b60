package online

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dart/internal/kd"
	"dart/internal/nn"
	"dart/internal/sim"
)

// tinyStudentArch is the StudentConfig shrink of tinyArch over the same
// data shapes.
func tinyStudentArch(data func() nn.TransformerConfig) func() nn.Layer {
	scfg := nn.StudentConfig(data())
	return func() nn.Layer {
		return nn.NewTransformerPredictor(scfg, rand.New(rand.NewSource(33)))
	}
}

func tinyTeacherCfg() nn.TransformerConfig {
	data := tinyData()
	return nn.TransformerConfig{
		T: data.History, DIn: data.InputDim(),
		DModel: 8, DFF: 16, DOut: data.OutputDim(), Heads: 2, Layers: 1,
	}
}

func studentLearnerConfig(dir string) Config {
	data := tinyData()
	return Config{
		Data: data, New: tinyArch(data), Dir: dir,
		BatchSize: 8, Tick: time.Millisecond, SwapInterval: -1, DistillInterval: -1,
		Duty: 1, Seed: 5,
		Student:        tinyStudentArch(tinyTeacherCfg),
		StudentLatency: 9, StudentStorageBytes: 1 << 12,
	}
}

// TestClassStoresShareDirWithoutCrosstalk: teacher and student class stores
// in one directory must keep fully independent version sequences, recover
// only their own files, and stamp their class into checkpoint metadata.
func TestClassStoresShareDirWithoutCrosstalk(t *testing.T) {
	dir := t.TempDir()
	data := tinyData()
	tStore, err := NewModelStore(tinyArch(data), dir, "")
	if err != nil {
		t.Fatal(err)
	}
	sStore, err := NewModelStore(tinyStudentArch(tinyTeacherCfg), dir, StudentClass)
	if err != nil {
		t.Fatal(err)
	}
	if tStore.Class() != "" || sStore.Class() != StudentClass {
		t.Fatalf("classes %q / %q", tStore.Class(), sStore.Class())
	}
	teacher := tinyArch(data)()
	student := tinyStudentArch(tinyTeacherCfg)()
	for i := 0; i < 3; i++ {
		if _, err := tStore.Publish(teacher, nn.CheckpointMeta{}); err != nil {
			t.Fatal(err)
		}
	}
	sm, err := sStore.Publish(student, nn.CheckpointMeta{})
	if err != nil {
		t.Fatal(err)
	}
	if sm.Version != 1 || sm.Meta.Class != StudentClass {
		t.Fatalf("student publish %+v, want v1 class %q", sm.Meta, StudentClass)
	}
	if got := tStore.Load().Version; got != 3 {
		t.Fatalf("teacher at v%d, want 3 (student publishes must not advance it)", got)
	}

	// Fresh recovery in the same dir: each class sees only its own files.
	tRec, err := NewModelStore(tinyArch(data), dir, "")
	if err != nil {
		t.Fatal(err)
	}
	sRec, err := NewModelStore(tinyStudentArch(tinyTeacherCfg), dir, StudentClass)
	if err != nil {
		t.Fatal(err)
	}
	if len(tRec.Skipped()) != 0 || len(sRec.Skipped()) != 0 {
		t.Fatalf("recovery skipped teacher %v / student %v", tRec.Skipped(), sRec.Skipped())
	}
	if tRec.Load().Version != 3 || sRec.Load().Version != 1 {
		t.Fatalf("recovered teacher v%d student v%d, want 3 / 1", tRec.Load().Version, sRec.Load().Version)
	}
	if tRec.Load().Meta.Class != "" || sRec.Load().Meta.Class != StudentClass {
		t.Fatalf("recovered classes %q / %q", tRec.Load().Meta.Class, sRec.Load().Meta.Class)
	}
}

// TestStoreRejectsCrossClassFile: a student checkpoint renamed into the
// teacher's namespace must be skipped (class mismatch), not served.
func TestStoreRejectsCrossClassFile(t *testing.T) {
	dir := t.TempDir()
	// Same architecture for both classes so the parameter shapes coincide —
	// only the class stamp can tell the files apart.
	arch := tinyArch(tinyData())
	sStore, err := NewModelStore(arch, dir, StudentClass)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sStore.Publish(arch(), nn.CheckpointMeta{}); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(
		filepath.Join(dir, "student-000000000001.dart"),
		filepath.Join(dir, "ckpt-000000000001.dart"),
	); err != nil {
		t.Fatal(err)
	}
	tStore, err := NewModelStore(arch, dir, "")
	if err != nil {
		t.Fatal(err)
	}
	if tStore.Load() != nil {
		t.Fatal("teacher store served a student-class checkpoint")
	}
	if len(tStore.Skipped()) != 1 {
		t.Fatalf("skipped %v, want the one cross-class file", tStore.Skipped())
	}
}

// TestInvalidClassRejected: class names that would break the filename
// namespace must be refused.
func TestInvalidClassRejected(t *testing.T) {
	// "ckpt" is reserved: it is the default class's filename prefix.
	for _, class := range []string{"bad-name", "a b", "x/y", "dots.", "ckpt"} {
		if _, err := NewModelStore(tinyArch(tinyData()), "", class); err == nil {
			t.Fatalf("class %q accepted", class)
		}
	}
}

// TestLearnerDistillsStudent drives the full student tier: streamed events
// assemble examples, distillation steps run alongside teacher fine-tuning,
// the student class publishes independently, and the distilled student must
// actually have learned from the teacher (KD loss trending down) while
// staying strictly smaller.
func TestLearnerDistillsStudent(t *testing.T) {
	dir := t.TempDir()
	l, err := NewLearner(studentLearnerConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !hasClass(l, StudentClass) {
		t.Fatal("student tier not enabled")
	}
	if v := class(t, l, StudentClass).Store().Load(); v == nil || v.Version != 1 {
		t.Fatalf("initial student %+v, want v1", v)
	}
	if nn.ParamCount(class(t, l, StudentClass).Store().Load().Val) >= nn.ParamCount(class(t, l, TeacherClass).Store().Load().Val) {
		t.Fatal("student is not smaller than the teacher")
	}

	ring := l.Attach("s0")
	// Stream rounds of fresh events, one tick each, until several
	// distillation steps have run (a step consumes the "fresh examples"
	// budget, so a single burst yields exactly one).
	for round := int64(0); l.Stats().DistillSteps < 3; round++ {
		for i, r := range testRecords(9+round, 500) {
			ev := Event{Access: sim.Access{InstrID: r.InstrID, PC: r.PC, Block: r.Block()}}
			if i%3 == 0 {
				ev.Useful = true
			}
			if !ring.Push(ev) {
				t.Fatal("ring full: a tick drains it before the next round")
			}
		}
		l.drainAll()
		l.maybeTrain()
		if round == 10 {
			t.Fatalf("distillation never ran: %+v", l.Stats())
		}
	}

	m, err := l.SwapStudent()
	if err != nil {
		t.Fatal(err)
	}
	if m < 2 {
		t.Fatalf("student swap published v%d, want ≥2", m)
	}
	if pub := class(t, l, StudentClass).Store().Load(); pub.Version != m || pub.Meta.Class != StudentClass {
		t.Fatalf("published v%d class %q, want v%d class %q", pub.Version, pub.Meta.Class, m, StudentClass)
	}
	st := l.Stats()
	if st.Distilled == 0 || st.DistillLoss == 0 || st.StudentVersion != m {
		t.Fatalf("student stats did not move: %+v", st)
	}
	// Teacher sequence unaffected by student publishes.
	if got := class(t, l, TeacherClass).Version(); got != 1 {
		t.Fatalf("teacher moved to v%d on student activity", got)
	}
	l.Detach("s0")
	l.Stop()

	// Student class recovers across restart, bit-identically.
	rec, err := NewModelStore(tinyStudentArch(tinyTeacherCfg), dir, StudentClass)
	if err != nil {
		t.Fatal(err)
	}
	got := rec.Load()
	cur := class(t, l, StudentClass).Store().Load()
	if got == nil || got.Version != cur.Version {
		t.Fatalf("recovered student %+v, serving v%d", got, cur.Version)
	}
	gp, cp := got.Val.Params(), cur.Val.Params()
	for i := range gp {
		for j, v := range cp[i].W.Data {
			if gp[i].W.Data[j] != v {
				t.Fatalf("student param %q[%d] differs after restart", cp[i].Name, j)
			}
		}
	}

	// A fresh learner over the same dir continues the student sequence.
	l2, err := NewLearner(studentLearnerConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if class(t, l2, StudentClass).Version() != cur.Version {
		t.Fatalf("restart student v%d, want v%d", class(t, l2, StudentClass).Version(), cur.Version)
	}
}

// TestStudentSwapRollbackCycle: successive student swaps publish fresh
// versions, rollback reverts serving and resets the student shadow to the
// rolled-back weights, and the teacher's single version cannot roll back.
func TestStudentSwapRollbackCycle(t *testing.T) {
	l, err := NewLearner(studentLearnerConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := l.SwapStudent()
	if err != nil || v2 != 2 {
		t.Fatalf("swap: %+v, %v", v2, err)
	}
	if v3, err := l.SwapStudent(); err != nil || v3 != 3 {
		t.Fatalf("swap: %+v, %v", v3, err)
	}
	student := class(t, l, StudentClass)
	back, err := student.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if back != 2 || student.Version() != 2 {
		t.Fatalf("rollback landed on v%d", back)
	}
	// The shadow was reset to the rolled-back weights: a fresh swap
	// republishes exactly them (no training ran in between).
	bp := student.Store().Load().Val.Params()
	if _, err := l.SwapStudent(); err != nil {
		t.Fatal(err)
	}
	ap := student.Store().Load().Val.Params()
	for i := range bp {
		for j, v := range bp[i].W.Data {
			if ap[i].W.Data[j] != v {
				t.Fatalf("student shadow not reset on rollback: param %q[%d]", bp[i].Name, j)
			}
		}
	}
	// The teacher still holds only v1 — its rollback must fail, and the
	// student activity must not have moved it.
	if _, err := class(t, l, TeacherClass).Rollback(); err == nil {
		t.Fatal("teacher rollback succeeded with a single version")
	}
	if class(t, l, TeacherClass).Version() != 1 {
		t.Fatalf("teacher moved to v%d", class(t, l, TeacherClass).Version())
	}
}

// TestStorePublishRejectsShapeMismatch: publishing a source whose
// architecture does not match the store's factory must fail cleanly and
// leave the store on its previous version.
func TestStorePublishRejectsShapeMismatch(t *testing.T) {
	s, err := NewModelStore(tinyArch(tinyData()), "", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Publish(tinyArch(tinyData())(), nn.CheckpointMeta{}); err != nil {
		t.Fatal(err)
	}
	wrong := tinyStudentArch(tinyTeacherCfg)() // halved dims: shapes cannot match
	if _, err := s.Publish(wrong, nn.CheckpointMeta{}); err == nil {
		t.Fatal("mismatched publish accepted")
	}
	if got := s.Load().Version; got != 1 {
		t.Fatalf("failed publish moved the store to v%d", got)
	}
}

// TestStudentVerbsWithoutTier: student swap/rollback on a teacher-only
// learner must error, not panic.
func TestStudentVerbsWithoutTier(t *testing.T) {
	data := tinyData()
	l, err := NewLearner(Config{Data: data, New: tinyArch(data), SwapInterval: -1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if c, err := l.Class(StudentClass); err == nil || c != nil || len(l.Classes()) != 1 {
		t.Fatalf("student tier reported on a teacher-only learner: %v, %v", c, err)
	}
	if _, err := l.SwapStudent(); err == nil {
		t.Fatal("SwapStudent succeeded without a tier")
	}
}

// TestLearnerDistillConfigValidated: bad KD hyperparameters must be caught
// at construction, and λ boundaries must be accepted (the kd zero-sentinel
// fix made them expressible).
func TestLearnerDistillConfigValidated(t *testing.T) {
	base := studentLearnerConfig("")
	bad := base
	bad.Distill = kd.Config{Lambda: 2, Temperature: 2}
	if _, err := NewLearner(bad); err == nil {
		t.Fatal("Lambda 2 accepted")
	}
	bad = base
	bad.Distill = kd.Config{Lambda: 0.5, Temperature: -1}
	if _, err := NewLearner(bad); err == nil {
		t.Fatal("Temperature -1 accepted")
	}
	hard := base
	hard.Distill = kd.Config{Lambda: 0, Temperature: 2} // pure hard loss
	if _, err := NewLearner(hard); err != nil {
		t.Fatalf("λ=0 rejected: %v", err)
	}
	soft := base
	soft.Distill = kd.Config{Lambda: 1, Temperature: 2} // pure KD
	if _, err := NewLearner(soft); err != nil {
		t.Fatalf("λ=1 rejected: %v", err)
	}
}
