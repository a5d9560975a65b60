package online

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dart/internal/mat"
	"dart/internal/nn"
)

// TestDecisionLogRing: the bounded log keeps the newest cap entries in
// oldest-first order, stamps monotonic sequence numbers, and counts every
// append ever made.
func TestDecisionLogRing(t *testing.T) {
	dl := newDecisionLog(3)
	if got := dl.snapshot(); len(got) != 0 {
		t.Fatalf("fresh log holds %d entries", len(got))
	}
	for i := 0; i < 5; i++ {
		d := dl.append(Decision{Class: "dart", Action: ActionHold})
		if d.Seq != uint64(i+1) {
			t.Fatalf("append %d stamped seq %d", i, d.Seq)
		}
		if d.Time.IsZero() {
			t.Fatal("append did not stamp a time")
		}
	}
	got := dl.snapshot()
	if len(got) != 3 {
		t.Fatalf("log retained %d entries, cap 3", len(got))
	}
	for i, d := range got {
		if d.Seq != uint64(i+3) {
			t.Fatalf("snapshot[%d] has seq %d, want %d (oldest first)", i, d.Seq, i+3)
		}
	}
	if dl.total() != 5 {
		t.Fatalf("total %d, want 5", dl.total())
	}
}

// TestPolicyConfigDefaultsAndValidate pins the defaulted knobs and the
// domain checks.
func TestPolicyConfigDefaultsAndValidate(t *testing.T) {
	cfg := NewPolicy(PolicyConfig{}).Config()
	if cfg.AdmitThreshold != 0.7 || cfg.AdmitWindow != 8 ||
		cfg.DivergeThreshold != 0.5 || cfg.DivergeWindows != 3 ||
		cfg.LiveWindow != 256 || cfg.LogCap != 128 {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
	for _, bad := range []PolicyConfig{
		{AdmitThreshold: 1.5},
		{AdmitThreshold: -0.1},
		{DivergeThreshold: 2},
		{MinSourceDelta: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("Validate accepted %+v", bad)
		}
	}
	if err := (PolicyConfig{AdmitThreshold: 0.9, DivergeThreshold: 0.4}).Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPolicyAdmitWindow: evidence accumulates until the window fills, the
// verdict applies the threshold over the whole window, and the window resets
// for the next candidate.
func TestPolicyAdmitWindow(t *testing.T) {
	p := NewPolicy(PolicyConfig{AdmitThreshold: 0.7, AdmitWindow: 3}, StudentClass)
	if p.observeCandidate(StudentClass, 10, 10) {
		t.Fatal("window full after 1 of 3 batches")
	}
	if p.observeCandidate(StudentClass, 10, 10) {
		t.Fatal("window full after 2 of 3 batches")
	}
	if !p.observeCandidate(StudentClass, 1, 10) {
		t.Fatal("window not full after 3 batches")
	}
	agree, batches, labels, ok := p.admitVerdict(StudentClass)
	if batches != 3 || labels != 30 {
		t.Fatalf("verdict window (%d batches, %d labels), want (3, 30)", batches, labels)
	}
	if agree != 0.7 || !ok {
		t.Fatalf("agreement %.3f ok=%v, want 0.700 admit (threshold inclusive)", agree, ok)
	}
	// The window reset: the next candidate starts from zero.
	if st := p.Stats(); st.Gates[0].PendingBatches != 0 {
		t.Fatalf("window not reset: %+v", st.Gates[0])
	}
	p.observeCandidate(StudentClass, 0, 10)
	p.observeCandidate(StudentClass, 0, 10)
	p.observeCandidate(StudentClass, 0, 10)
	if agree, _, _, ok := p.admitVerdict(StudentClass); ok || agree != 0 {
		t.Fatalf("degraded candidate admitted (agreement %.3f)", agree)
	}
	// Unknown classes never fill a window.
	if p.observeCandidate("nope", 1, 1) {
		t.Fatal("unknown class filled a window")
	}
	if _, _, _, ok := p.admitVerdict("nope"); ok {
		t.Fatal("unknown class admitted")
	}
}

// TestPolicyBudgetCheck: only configured classes are budgeted, and each axis
// is checked independently with a 0 meaning unchecked.
func TestPolicyBudgetCheck(t *testing.T) {
	p := NewPolicy(PolicyConfig{Budgets: map[string]Budget{
		DartClass: {LatencyCycles: 100, StorageBytes: 1 << 10},
	}}, StudentClass, DartClass)
	if ok, _ := p.budgetCheck(StudentClass, 1<<20, 1<<30); !ok {
		t.Fatal("unbudgeted class rejected")
	}
	if ok, _ := p.budgetCheck(DartClass, 100, 1<<10); !ok {
		t.Fatal("at-budget candidate rejected")
	}
	if ok, reason := p.budgetCheck(DartClass, 101, 1); ok || !strings.Contains(reason, "latency") {
		t.Fatalf("over-latency candidate passed (ok=%v reason=%q)", ok, reason)
	}
	if ok, reason := p.budgetCheck(DartClass, 1, 1<<10+1); ok || !strings.Contains(reason, "storage") {
		t.Fatalf("over-storage candidate passed (ok=%v reason=%q)", ok, reason)
	}
}

// TestPolicyLiveDivergenceRollback: live windows below the divergence
// threshold for the configured streak trigger the registered rollback
// exactly once, with full hysteresis before any re-fire, and the decision
// carries the agreement evidence.
func TestPolicyLiveDivergenceRollback(t *testing.T) {
	p := NewPolicy(PolicyConfig{
		DivergeThreshold: 0.5, DivergeWindows: 2, LiveWindow: 10,
	}, DartClass)
	var rollbacks int
	p.RegisterRollback(DartClass, func() (uint64, error) {
		rollbacks++
		return 1, nil
	})

	// Healthy windows never trip the gate.
	for i := 0; i < 5; i++ {
		p.ObserveLive(DartClass, 2, 10, 10)
	}
	if rollbacks != 0 {
		t.Fatal("healthy traffic rolled back")
	}
	// One divergent window is not a streak.
	p.ObserveLive(DartClass, 2, 0, 10)
	if st := p.Stats(); st.Gates[0].Divergent != 1 {
		t.Fatalf("divergent streak %d, want 1", st.Gates[0].Divergent)
	}
	// A healthy window resets the streak.
	p.ObserveLive(DartClass, 2, 10, 10)
	if st := p.Stats(); st.Gates[0].Divergent != 0 {
		t.Fatal("healthy window did not reset the streak")
	}
	// Two consecutive divergent windows fire the rollback once.
	p.ObserveLive(DartClass, 2, 0, 10)
	p.ObserveLive(DartClass, 2, 1, 10)
	if rollbacks != 1 {
		t.Fatalf("rollback fired %d times, want 1", rollbacks)
	}
	st := p.Stats()
	if st.RolledBack != 1 || st.Gates[0].Divergent != 0 {
		t.Fatalf("post-rollback state: %+v", st)
	}
	ds := p.Decisions()
	last := ds[len(ds)-1]
	if last.Action != ActionRollback || last.Class != DartClass || last.Version != 1 {
		t.Fatalf("rollback decision: %+v", last)
	}
	if last.Agreement != 0.1 || last.Batches != 2 || last.Labels != 10 {
		t.Fatalf("rollback evidence: %+v", last)
	}
	if !strings.Contains(last.Reason, "rolled back v2 -> v1") {
		t.Fatalf("rollback reason: %q", last.Reason)
	}

	// A version change (the rollback landing) resets the window entirely —
	// stale divergence never condemns the restored version.
	p.ObserveLive(DartClass, 1, 0, 5)
	p.ObserveLive(DartClass, 2, 0, 5) // version flips mid-window
	if st := p.Stats(); st.Gates[0].LiveVersion != 2 || st.Gates[0].Divergent != 0 {
		t.Fatalf("version change did not reset the live window: %+v", st.Gates[0])
	}

	// Empty batches are ignored outright.
	p.ObserveLive(DartClass, 2, 0, 0)
	// Unknown classes are ignored outright.
	p.ObserveLive("nope", 1, 0, 100)
	if rollbacks != 1 {
		t.Fatal("ignored observations fired a rollback")
	}
}

// TestPolicyRollbackFailureLogged: a divergence with no callback (or a
// failing one) still logs the decision, does not count as a rollback, and
// the hysteresis reset prevents re-firing on every subsequent window.
func TestPolicyRollbackFailureLogged(t *testing.T) {
	p := NewPolicy(PolicyConfig{
		DivergeThreshold: 0.5, DivergeWindows: 1, LiveWindow: 4,
	}, DartClass)
	p.ObserveLive(DartClass, 1, 0, 4)
	if st := p.Stats(); st.RolledBack != 0 {
		t.Fatal("callback-less divergence counted as a rollback")
	}
	ds := p.Decisions()
	if len(ds) != 1 || ds[0].Action != ActionRollback ||
		!strings.Contains(ds[0].Reason, "no rollback registered") {
		t.Fatalf("decisions after callback-less divergence: %+v", ds)
	}
}

// TestParamDelta: identical nets are at distance 0, a perturbation moves the
// relative L2 by the expected amount, and shape mismatches force a rebuild.
func TestParamDelta(t *testing.T) {
	mk := tinyArch(tinyData())
	a, b := mk(), mk()
	if err := nn.CopyParams(b, a); err != nil {
		t.Fatal(err)
	}
	if d := paramDelta(a, b); d != 0 {
		t.Fatalf("identical nets at delta %v", d)
	}
	for _, p := range b.Params() {
		for i := range p.W.Data {
			p.W.Data[i] *= 1.1
		}
	}
	d := paramDelta(a, b)
	// ||a - 1.1a|| / ||a|| = 0.1 exactly.
	if math.Abs(d-0.1) > 1e-9 {
		t.Fatalf("10%% scaled net at delta %v, want 0.1", d)
	}
	small := nn.NewTransformerPredictor(nn.TransformerConfig{
		T: tinyData().History, DIn: tinyData().InputDim(),
		DModel: 4, DFF: 8, DOut: tinyData().OutputDim(), Heads: 2, Layers: 1,
	}, rand.New(rand.NewSource(1)))
	if !math.IsInf(paramDelta(a, small), 1) {
		t.Fatal("shape mismatch did not force a rebuild")
	}
}

// fillReservoir synthesizes deterministic reservoir examples directly, so
// gate tests run without the background loop or real traffic.
func fillReservoir(l *Learner, n int) {
	rng := rand.New(rand.NewSource(99))
	din := l.cfg.Data.InputDim()
	for i := 0; i < n; i++ {
		ex := example{
			x: make([]float64, l.cfg.Data.History*din),
			y: make([]float64, l.cfg.Data.OutputDim()),
		}
		for j := range ex.x {
			ex.x[j] = rng.Float64()
		}
		ex.y[rng.Intn(len(ex.y))] = 1
		l.addExample(ex)
	}
}

// policyLearnerConfig is a dart-tier learner with the promotion gate on and
// every auto cadence disabled — tests drive the gate directly.
func policyLearnerConfig(dir string, pc PolicyConfig) Config {
	cfg := dartLearnerConfig(dir)
	cfg.Policy = &pc
	return cfg
}

// TestGateAdmitsHealthyStudent: a student whose parameters are a bit-exact
// copy of its distillation teacher agrees on every label, so the gate admits
// and publishes it with the evidence in the decision log.
func TestGateAdmitsHealthyStudent(t *testing.T) {
	cfg := policyLearnerConfig(t.TempDir(), PolicyConfig{AdmitWindow: 2})
	// Teacher and student must share a shape for the bit-exact copy below.
	cfg.Student = cfg.New
	l, err := NewLearner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillReservoir(l, 64)
	v0 := class(t, l, StudentClass).Version()

	student := stageOf(t, l, StudentClass)
	l.trainMu.Lock()
	if err := nn.CopyParams(student.shadow, class(t, l, TeacherClass).Store().Load().Val); err != nil {
		l.trainMu.Unlock()
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		l.offer(student)
	}
	l.trainMu.Unlock()

	if got := class(t, l, StudentClass).Version(); got != v0+1 {
		t.Fatalf("healthy candidate not admitted: student v%d, want v%d", got, v0+1)
	}
	ds := l.Policy().Decisions()
	last := ds[len(ds)-1]
	if last.Action != ActionAdmit || last.Class != StudentClass {
		t.Fatalf("admit decision: %+v", last)
	}
	if last.Agreement != 1 || last.Batches != 2 || last.Labels == 0 {
		t.Fatalf("admit evidence: %+v", last)
	}
	if last.LatencyCycles != cfg.StudentLatency || last.StorageBytes != cfg.StudentStorageBytes {
		t.Fatalf("admit cost evidence: %+v", last)
	}
}

// TestGateHoldsDegradedStudent: a label-shuffled (randomized) student
// candidate cannot sustain the agreement threshold, so the gate holds it —
// the served student version must not move and the hold lands in the log.
func TestGateHoldsDegradedStudent(t *testing.T) {
	cfg := policyLearnerConfig(t.TempDir(), PolicyConfig{AdmitWindow: 2, AdmitThreshold: 0.999})
	l, err := NewLearner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillReservoir(l, 64)
	v0 := class(t, l, StudentClass).Version()

	student := stageOf(t, l, StudentClass)
	l.trainMu.Lock()
	// Degrade the candidate: random logits against the teacher's.
	rng := rand.New(rand.NewSource(4))
	for _, p := range student.shadow.Params() {
		for i := range p.W.Data {
			p.W.Data[i] = rng.NormFloat64()
		}
	}
	for i := 0; i < 2; i++ {
		l.offer(student)
	}
	l.trainMu.Unlock()

	if got := class(t, l, StudentClass).Version(); got != v0 {
		t.Fatalf("degraded candidate published: student v%d, want v%d", got, v0)
	}
	st := l.Policy().Stats()
	if st.Held != 1 || st.Admitted != 0 {
		t.Fatalf("gate counters: %+v", st)
	}
	ds := l.Policy().Decisions()
	last := ds[len(ds)-1]
	if last.Action != ActionHold || !strings.Contains(last.Reason, "agreement") {
		t.Fatalf("hold decision: %+v", last)
	}
	if last.Agreement >= 0.999 || last.Labels == 0 {
		t.Fatalf("hold evidence: %+v", last)
	}
}

// TestGateBudgetHoldsStudent: a candidate over its explicit budget is held
// even at perfect agreement.
func TestGateBudgetHoldsStudent(t *testing.T) {
	cfg := policyLearnerConfig(t.TempDir(), PolicyConfig{
		AdmitWindow: 1,
		Budgets:     map[string]Budget{StudentClass: {LatencyCycles: cfg0StudentLatency - 1}},
	})
	cfg.Student = cfg.New
	l, err := NewLearner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillReservoir(l, 64)
	v0 := class(t, l, StudentClass).Version()
	student := stageOf(t, l, StudentClass)
	l.trainMu.Lock()
	if err := nn.CopyParams(student.shadow, class(t, l, TeacherClass).Store().Load().Val); err == nil {
		l.offer(student)
	}
	l.trainMu.Unlock()
	if got := class(t, l, StudentClass).Version(); got != v0 {
		t.Fatalf("over-budget candidate published: v%d", got)
	}
	ds := l.Policy().Decisions()
	if last := ds[len(ds)-1]; last.Action != ActionHold || !strings.Contains(last.Reason, "budget") {
		t.Fatalf("budget hold decision: %+v", last)
	}
}

// cfg0StudentLatency mirrors studentLearnerConfig's modelled student latency.
const cfg0StudentLatency = 9

// TestGatedDartAdmitAndEvidence: a gated tabularization publishes only after
// the candidate hierarchy clears the agreement window against the published
// student it derives from, and the admit decision carries the table fidelity
// (cosine) and modelled cost evidence.
func TestGatedDartAdmitAndEvidence(t *testing.T) {
	cfg := policyLearnerConfig(t.TempDir(), PolicyConfig{
		AdmitWindow: 2, AdmitThreshold: 0.05,
	})
	l, err := NewLearner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillReservoir(l, 64)

	dart := stageOf(t, l, DartClass)
	dart.mu.Lock()
	tab, err := l.offer(dart)
	dart.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if got := class(t, l, DartClass).Tables().Load(); got == nil || got.Version != tab {
		t.Fatal("gated admit did not publish the table")
	}
	ds := l.Policy().Decisions()
	last := ds[len(ds)-1]
	if last.Action != ActionAdmit || last.Class != DartClass || last.Version != tab {
		t.Fatalf("dart admit decision: %+v", last)
	}
	if last.Cosine <= 0 || last.Batches != 2 || last.LatencyCycles <= 0 || last.StorageBytes <= 0 {
		t.Fatalf("dart admit evidence: %+v", last)
	}
}

// TestGatedDartHeldBelowThreshold: with an unattainable agreement threshold
// the candidate is built, held, and not published.
func TestGatedDartHeldBelowThreshold(t *testing.T) {
	cfg := policyLearnerConfig(t.TempDir(), PolicyConfig{
		AdmitWindow: 1, AdmitThreshold: 1,
	})
	l, err := NewLearner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillReservoir(l, 64)
	dart := stageOf(t, l, DartClass)
	dart.mu.Lock()
	_, err = l.offer(dart)
	dart.mu.Unlock()
	if err == nil || !strings.Contains(err.Error(), "held") {
		t.Fatalf("gated build returned %v, want held error", err)
	}
	if class(t, l, DartClass).Tables().Load() != nil {
		t.Fatal("held candidate was published")
	}
	st := l.Stats()
	if st.Tabularized != 1 || st.DartPublished != 0 {
		t.Fatalf("stats after hold: %+v", st)
	}
}

// TestDartAttemptsSkipsSplit is the operator-visibility regression test: an
// idle tabularizer (student unchanged) must count an attempt and a skip —
// without republishing, and without inflating the counters on every 2ms tick
// — so dart stats distinguish "idle" from "stuck". Fails before the split:
// the legacy stats had no attempt/skip counters at all.
func TestDartAttemptsSkipsSplit(t *testing.T) {
	cfg := dartLearnerConfig(t.TempDir())
	cfg.TabularizeInterval = time.Nanosecond // every manual tick is "due"
	l, err := NewLearner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillReservoir(l, 64)
	if _, err := l.SwapDart(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.DartAttempts != 1 || st.DartSkips != 0 || st.DartPublished != 1 {
		t.Fatalf("after build: attempts %d skips %d published %d, want 1/0/1",
			st.DartAttempts, st.DartSkips, st.DartPublished)
	}
	// Idle duty cycles: one skip for the unchanged student version, deduped
	// across re-checks.
	for i := 0; i < 5; i++ {
		l.turns(false)
	}
	st = l.Stats()
	if st.DartAttempts != 2 || st.DartSkips != 1 {
		t.Fatalf("after idle ticks: attempts %d skips %d, want 2/1 (deduped)",
			st.DartAttempts, st.DartSkips)
	}
	if st.DartPublished != 1 {
		t.Fatal("idle duty cycle republished")
	}
	// A new student version re-arms the skip counter.
	if _, err := l.SwapStudent(); err != nil {
		t.Fatal(err)
	}
	l.turns(false) // rebuilds (version changed)
	st = l.Stats()
	if st.DartAttempts != 3 || st.DartSkips != 1 || st.DartPublished != 2 {
		t.Fatalf("after student bump: attempts %d skips %d published %d, want 3/1/2",
			st.DartAttempts, st.DartSkips, st.DartPublished)
	}
}

// TestMinSourceDeltaSkipsRebuild: with MinSourceDelta configured, a student
// version whose parameters barely moved skips the rebuild and logs the skip
// decision with the measured delta.
func TestMinSourceDeltaSkipsRebuild(t *testing.T) {
	cfg := policyLearnerConfig(t.TempDir(), PolicyConfig{MinSourceDelta: 0.5, AdmitThreshold: 0.01, AdmitWindow: 1})
	cfg.TabularizeInterval = time.Nanosecond
	l, err := NewLearner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillReservoir(l, 64)
	dart := stageOf(t, l, DartClass)
	dart.mu.Lock()
	_, err = l.offer(dart)
	dart.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	v1 := class(t, l, DartClass).Version()

	// Republish the student with identical parameters: a new version, but a
	// param delta of exactly 0 — below the configured floor.
	if _, err := l.SwapStudent(); err != nil {
		t.Fatal(err)
	}
	l.turns(false)
	if got := class(t, l, DartClass).Version(); got != v1 {
		t.Fatalf("below-delta student rebuilt the table (v%d -> v%d)", v1, got)
	}
	st := l.Stats()
	if st.DartSkips != 1 {
		t.Fatalf("below-delta skip not counted: %+v", st)
	}
	ds := l.Policy().Decisions()
	last := ds[len(ds)-1]
	if last.Action != ActionSkip || !strings.Contains(last.Reason, "param delta") {
		t.Fatalf("skip decision: %+v", last)
	}

	// Move the student past the floor: the next cycle rebuilds.
	l.trainMu.Lock()
	for _, p := range stageOf(t, l, StudentClass).shadow.Params() {
		for i := range p.W.Data {
			p.W.Data[i] *= 2
		}
	}
	l.trainMu.Unlock()
	if _, err := l.SwapStudent(); err != nil {
		t.Fatal(err)
	}
	l.turns(false)
	if got := class(t, l, DartClass).Version(); got == v1 {
		t.Fatal("over-delta student did not rebuild")
	}
}

// TestPolicyDisabledBitIdentity is the compatibility pin: running with the
// policy engine enabled must not perturb the training stream. Two learners
// over identical seeds and examples — one gated, one legacy — take identical
// optimizer steps even while the gated one's admission gate is consuming
// evaluation batches, because the gate draws from a dedicated RNG.
func TestPolicyDisabledBitIdentity(t *testing.T) {
	mk := func(pc *PolicyConfig) *Learner {
		cfg := dartLearnerConfig("")
		cfg.Dir = ""
		cfg.Policy = pc
		l, err := NewLearner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fillReservoir(l, 64)
		return l
	}
	legacy := mk(nil)
	gated := mk(&PolicyConfig{AdmitWindow: 3})
	if legacy.Policy() != nil || gated.Policy() == nil {
		t.Fatal("policy wiring")
	}

	step := func(l *Learner) {
		l.trainMu.Lock()
		l.trainLocked()
		l.trainMu.Unlock()
	}
	for i := 0; i < 4; i++ {
		step(legacy)
		step(gated)
		// The gate burns evaluation batches between training steps; the
		// legacy learner does nothing. Training must stay bit-identical.
		gated.trainMu.Lock()
		gated.offer(stageOf(t, gated, StudentClass))
		gated.trainMu.Unlock()
	}

	lp, gp := stageOf(t, legacy, TeacherClass).shadow.Params(), stageOf(t, gated, TeacherClass).shadow.Params()
	for i := range lp {
		for j := range lp[i].W.Data {
			if lp[i].W.Data[j] != gp[i].W.Data[j] {
				t.Fatalf("teacher shadow diverged at param %d[%d]: %v != %v",
					i, j, lp[i].W.Data[j], gp[i].W.Data[j])
			}
		}
	}
	ls, gs := stageOf(t, legacy, StudentClass).shadow.Params(), stageOf(t, gated, StudentClass).shadow.Params()
	for i := range ls {
		for j := range ls[i].W.Data {
			if ls[i].W.Data[j] != gs[i].W.Data[j] {
				t.Fatalf("student shadow diverged at param %d[%d]", i, j)
			}
		}
	}
}

// TestForcedVerbsLogDecisions: wire-forced swap/rollback bypass the gate but
// still land in the decision log, marked as forced; with the policy disabled
// they log nothing and behave as before.
func TestForcedVerbsLogDecisions(t *testing.T) {
	cfg := policyLearnerConfig(t.TempDir(), PolicyConfig{})
	l, err := NewLearner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillReservoir(l, 64)
	if _, err := l.SwapStudent(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.SwapDart(); err != nil {
		t.Fatal(err)
	}
	if _, err := class(t, l, StudentClass).Rollback(); err != nil {
		t.Fatal(err)
	}
	ds := l.Policy().Decisions()
	if len(ds) != 3 {
		t.Fatalf("forced verbs logged %d decisions, want 3: %+v", len(ds), ds)
	}
	for _, d := range ds {
		if !strings.Contains(d.Reason, "forced") {
			t.Fatalf("forced decision not marked: %+v", d)
		}
	}
	if ds[0].Class != StudentClass || ds[0].Action != ActionAdmit ||
		ds[1].Class != DartClass || ds[1].Action != ActionAdmit ||
		ds[2].Class != StudentClass || ds[2].Action != ActionRollback {
		t.Fatalf("forced decision sequence: %+v", ds)
	}
}

// TestAgreementCount pins the label comparison: same-side-of-zero counting
// over the shorter tensor.
func TestAgreementCount(t *testing.T) {
	a := mat.NewTensor(1, 1, 4)
	b := mat.NewTensor(1, 1, 4)
	copy(a.Data, []float64{1, -1, 0.5, -2})
	copy(b.Data, []float64{2, -3, -0.5, -1})
	match, total := Agreement(a, b)
	if match != 3 || total != 4 {
		t.Fatalf("agreement %d/%d, want 3/4", match, total)
	}
	if m := meanCosine(nil); m != 0 {
		t.Fatalf("meanCosine(nil) = %v", m)
	}
	if m := meanCosine([]float64{0.5, 1}); m != 0.75 {
		t.Fatalf("meanCosine = %v, want 0.75", m)
	}
}
