package online

import (
	"sync/atomic"

	"dart/internal/mat"
	"dart/internal/nn"
	"dart/internal/tabular"
)

// The serving classes, in pipeline order: every stage is the previous one
// made cheaper. The names are shared by the checkpoint metadata, the decision
// log, and the wire protocol's class selector.
const (
	// TeacherClass is the continually fine-tuned online model (prefetcher
	// "online"); the wire selector also accepts "" for it.
	TeacherClass = "teacher"
	// StudentClass is the compact model distilled from the published teacher.
	StudentClass = "student"
	// DartClass is the table hierarchy tabularized from the published
	// student. The paper's deployment artifact is the tables, not the
	// network — this is the class production sessions are meant to pin.
	DartClass = "dart"
)

// versioned is the payload-agnostic view of a Store the class table reads;
// every Store[P] satisfies it.
type versioned interface {
	Version() uint64
	Versions() []uint64
	Skipped() []string
	infer(in *mat.Tensor) (*mat.Tensor, uint64, bool)
}

// Class is one row of the learner's serving-class table: one stage of the
// teacher → student → dart pipeline as everything outside the training loop
// sees it. The wire verbs, the policy engine's rollback hook and the serving
// engine's batcher constructor all work on rows, so none of them branches on
// which class it was handed — adding a serving class means building one more
// row in NewLearner.
type Class struct {
	name       string
	prefetcher string
	source     *Class                     // the nn class this one derives from and falls back to; nil for the teacher
	store      *Store[nn.Layer]           // nn payload classes; nil for table classes
	tables     *Store[*tabular.Hierarchy] // table payload classes; nil for nn classes
	hist       versioned                  // whichever of store and tables is set
	published  atomic.Uint64              // publishes since the learner started
	l          *Learner                   // for the decision log of forced verbs

	cost    func() (latency, storageBytes int)
	publish func() (uint64, error) // force a fresh version, admission gate bypassed
	revert  func() (uint64, error) // roll back one version, no decision logged
}

// Name is the class name: TeacherClass, StudentClass or DartClass.
func (c *Class) Name() string { return c.name }

// Prefetcher is the prefetcher name sessions open to be served by this
// class: "online", "student" or "dart".
func (c *Class) Prefetcher() string { return c.prefetcher }

// Source is the class this one is derived from — and degrades to while it
// has published nothing yet. Always an nn class; nil for the teacher.
func (c *Class) Source() *Class { return c.source }

// Store is the versioned store of an nn class (teacher, student); nil for a
// table class.
func (c *Class) Store() *Store[nn.Layer] { return c.store }

// Tables is the versioned store of a table class (dart); nil for an nn class.
func (c *Class) Tables() *Store[*tabular.Hierarchy] { return c.tables }

// Version is the currently served version, 0 while none is published (only
// the dart class can be empty: tabularization needs streamed examples).
func (c *Class) Version() uint64 { return c.hist.Version() }

// Versions lists the versions held for rollback, oldest first.
func (c *Class) Versions() []uint64 { return c.hist.Versions() }

// Skipped lists the checkpoint files recovery rejected, with the reason.
func (c *Class) Skipped() []string { return c.hist.Skipped() }

// Published counts publishes since the learner started.
func (c *Class) Published() uint64 { return c.published.Load() }

// Cost is the modelled inference latency (cycles) and predictor storage the
// simulator charges sessions of this class. Fixed by Config for the nn
// classes; the dart class reports the analytic cost of whatever table is
// currently published.
func (c *Class) Cost() (latency, storageBytes int) { return c.cost() }

// Infer runs one batch through the currently published version and reports
// that version; ok is false while nothing is published. One call resolves
// the version exactly once, which is what keeps a batch on one version. Safe
// from any goroutine: published networks and tables store nothing on a
// query.
func (c *Class) Infer(in *mat.Tensor) (out *mat.Tensor, version uint64, ok bool) {
	return c.hist.infer(in)
}

// Swap force-publishes a fresh version immediately (the wire protocol's
// "swap" verb) and returns it: the training shadow for the nn classes, a
// forced re-tabularization of the published student for dart. The admission
// gate is bypassed — an operator outranks the policy — but the publish is
// still recorded in the decision log. Serving picks the version up at the
// next inference batch.
func (c *Class) Swap() (uint64, error) { return c.forced(ActionAdmit, c.publish) }

// Rollback reverts serving to the previously published version (the
// "rollback" verb) and returns it. The nn classes also reset their shadow
// and optimizer state to those weights, so training continues from the
// rolled-back point rather than republishing the bad ones; the dart class
// forgets the student version it was built from, so it rebuilds.
func (c *Class) Rollback() (uint64, error) { return c.forced(ActionRollback, c.revert) }

func (c *Class) forced(action string, do func() (uint64, error)) (uint64, error) {
	v, err := do()
	if pol := c.l.pol; err == nil && pol != nil {
		pol.record(Decision{Class: c.name, Action: action, Version: v,
			Reason: "forced via wire verb (gate bypassed)"})
	}
	return v, err
}

// Agreement compares two logit tensors label by label and counts how many
// land on the same side of the decision boundary the prefetcher applies
// (NNPrefetcher.Apply issues a bit when its logit is > 0, i.e. p > 0.5). It
// is the one agreement measure: the admission gate, the live-divergence gate
// and the A/B meter must score a batch identically.
func Agreement(a, b *mat.Tensor) (match, total uint64) {
	n := min(len(a.Data), len(b.Data))
	for i := 0; i < n; i++ {
		if (a.Data[i] > 0) == (b.Data[i] > 0) {
			match++
		}
	}
	return match, uint64(n)
}
