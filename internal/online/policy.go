// Promotion policy engine: the control plane that decides when a candidate
// version of a serving class may be published and when a published version
// must be withdrawn. It generalizes the student tier's A/B shadow-compare
// into the gate for every class publish:
//
//   - admission — a candidate (student shadow, freshly tabularized hierarchy)
//     is published only after it sustains at least AdmitThreshold agreement
//     with its *source* class over a sliding window of AdmitWindow shadow
//     batches, and only while its modelled latency/storage cost fits the
//     configured per-class budget;
//   - live divergence — the serving engine feeds every shadow-compared
//     inference batch into ObserveLive; when a published version's live
//     agreement stays below DivergeThreshold for DivergeWindows consecutive
//     windows, the engine auto-rolls the class back to the prior good
//     version through a callback the learner registers;
//   - evidence — every decision (admit, hold, rollback, skip) lands in a
//     bounded decision log with the agreement numbers it was made on,
//     surfaced through the `policy` wire verb.
//
// The engine is deliberately passive: it owns no models and takes no locks
// of the learner. The learner drives admission evidence from its own loop
// (it owns the shadow networks), the serving engine drives live evidence
// from its batchers, and rollback runs through registered callbacks with no
// policy lock held — the policy mutex is a leaf and must never be held while
// calling into the learner.
package online

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"dart/internal/nn"
)

// Budget is an explicit per-class serving cost ceiling checked at admission.
type Budget struct {
	LatencyCycles int // modelled inference latency ceiling (0 = unchecked)
	StorageBytes  int // modelled predictor storage ceiling (0 = unchecked)
}

// PolicyConfig tunes the promotion policy engine. Zero values select
// defaults; a nil *PolicyConfig on online.Config disables the engine
// entirely, leaving the legacy unconditional duty-cycle publish path
// bit-identical to previous releases.
type PolicyConfig struct {
	// AdmitThreshold is the minimum candidate-vs-source agreement fraction
	// over the admission window for a publish to be admitted (default 0.7).
	AdmitThreshold float64
	// AdmitWindow is how many shadow batches of evidence the gate requires
	// before deciding admit/hold (default 8).
	AdmitWindow int
	// DivergeThreshold is the live agreement fraction below which a window
	// counts as divergent (default 0.5).
	DivergeThreshold float64
	// DivergeWindows is how many consecutive divergent live windows trigger
	// an automatic rollback (default 3).
	DivergeWindows int
	// LiveWindow is how many shadow-compared labels make one live window
	// (default 256).
	LiveWindow int
	// MinSourceDelta skips a dart re-tabularization when the published
	// student's relative parameter delta since the last build is below this
	// fraction (default 0 = always rebuild on version change).
	MinSourceDelta float64
	// Budgets holds the per-class admission cost ceilings, keyed by class
	// name (StudentClass, DartClass). Missing classes are unbudgeted.
	Budgets map[string]Budget
	// LogCap bounds the decision log (default 128 entries).
	LogCap int
}

func (c PolicyConfig) withDefaults() PolicyConfig {
	if c.AdmitThreshold == 0 {
		c.AdmitThreshold = 0.7
	}
	if c.AdmitWindow <= 0 {
		c.AdmitWindow = 8
	}
	if c.DivergeThreshold == 0 {
		c.DivergeThreshold = 0.5
	}
	if c.DivergeWindows <= 0 {
		c.DivergeWindows = 3
	}
	if c.LiveWindow <= 0 {
		c.LiveWindow = 256
	}
	if c.LogCap <= 0 {
		c.LogCap = 128
	}
	return c
}

// Validate rejects thresholds outside their domains.
func (c PolicyConfig) Validate() error {
	if c.AdmitThreshold < 0 || c.AdmitThreshold > 1 {
		return fmt.Errorf("online: AdmitThreshold %v outside [0, 1]", c.AdmitThreshold)
	}
	if c.DivergeThreshold < 0 || c.DivergeThreshold > 1 {
		return fmt.Errorf("online: DivergeThreshold %v outside [0, 1]", c.DivergeThreshold)
	}
	if c.MinSourceDelta < 0 {
		return fmt.Errorf("online: MinSourceDelta %v must be >= 0", c.MinSourceDelta)
	}
	return nil
}

// Decision actions recorded in the log.
const (
	ActionAdmit    = "admit"
	ActionHold     = "hold"
	ActionRollback = "rollback"
	ActionSkip     = "skip"
)

// admitGate accumulates candidate-vs-source shadow-batch evidence for one
// class until the admission window is full.
type admitGate struct {
	match   uint64
	total   uint64
	batches int
}

// liveGate tracks one class's served-version live agreement. A version
// change (publish or rollback) resets the window — evidence never carries
// across versions.
type liveGate struct {
	ver       uint64  // version the window is accumulating for
	match     uint64  // agreeing labels in the open window
	total     uint64  // labels in the open window
	agree     float64 // agreement of the last completed window
	windows   uint64  // completed windows for this class
	divergent int     // consecutive divergent windows
}

// Policy is the promotion policy engine. All methods are safe for
// concurrent use; ObserveLive is the serving hot path and allocation-free.
type Policy struct {
	cfg     PolicyConfig
	log     *decisionLog
	classes []string // gated classes, in the order given to NewPolicy

	mu    sync.Mutex
	admit map[string]*admitGate
	live  map[string]*liveGate

	// rollback callbacks, registered before serving starts, immutable after.
	rollbackFn map[string]func() (uint64, error)

	admitted   atomic.Uint64
	held       atomic.Uint64
	rolledBack atomic.Uint64
	skipped    atomic.Uint64
}

// NewPolicy builds an engine gating the given classes (their admission and
// live windows exist from the start; unknown classes are ignored by
// ObserveLive).
func NewPolicy(cfg PolicyConfig, classes ...string) *Policy {
	cfg = cfg.withDefaults()
	p := &Policy{
		cfg:        cfg,
		log:        newDecisionLog(cfg.LogCap),
		classes:    classes,
		admit:      make(map[string]*admitGate, len(classes)),
		live:       make(map[string]*liveGate, len(classes)),
		rollbackFn: make(map[string]func() (uint64, error), len(classes)),
	}
	for _, c := range classes {
		p.admit[c] = &admitGate{}
		p.live[c] = &liveGate{}
	}
	return p
}

// Config returns the engine's (defaulted) configuration.
func (p *Policy) Config() PolicyConfig { return p.cfg }

// RegisterRollback installs the class's rollback callback (returning the
// version rolled back to). Must be called before serving traffic starts;
// callbacks are invoked with no policy lock held.
func (p *Policy) RegisterRollback(class string, fn func() (uint64, error)) {
	p.rollbackFn[class] = fn
}

// observeCandidate adds one shadow batch of candidate-vs-source evidence and
// reports whether the admission window is now full.
func (p *Policy) observeCandidate(class string, match, total uint64) (full bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	g := p.admit[class]
	if g == nil {
		return false
	}
	g.match += match
	g.total += total
	g.batches++
	return g.batches >= p.cfg.AdmitWindow
}

// admitVerdict closes the class's admission window: it returns the
// accumulated agreement evidence, whether it clears AdmitThreshold, and
// resets the window for the next candidate.
func (p *Policy) admitVerdict(class string) (agree float64, batches int, labels uint64, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	g := p.admit[class]
	if g == nil {
		return 0, 0, 0, false
	}
	batches, labels = g.batches, g.total
	if g.total > 0 {
		agree = float64(g.match) / float64(g.total)
	}
	g.match, g.total, g.batches = 0, 0, 0
	return agree, batches, labels, agree >= p.cfg.AdmitThreshold
}

// decide closes the admission window of d.Class for a candidate whose
// modelled cost d carries, and completes d with the evidence and the verdict:
// a hold when the cost is over the class budget or the agreement under
// AdmitThreshold, an admit otherwise. The caller records the decision — an
// admit only once its publish succeeded and the version is known.
func (p *Policy) decide(d Decision) (Decision, bool) {
	var ok bool
	d.Agreement, d.Batches, d.Labels, ok = p.admitVerdict(d.Class)
	if fits, reason := p.budgetCheck(d.Class, d.LatencyCycles, d.StorageBytes); !fits {
		d.Action, d.Reason = ActionHold, "budget: "+reason
		return d, false
	}
	d.Action = ActionAdmit
	op := ">="
	if !ok {
		d.Action, op = ActionHold, "<"
	}
	d.Reason = fmt.Sprintf("agreement %.3f %s %.2f over %d shadow batches",
		d.Agreement, op, p.cfg.AdmitThreshold, d.Batches)
	return d, ok
}

// budgetCheck compares a candidate's modelled cost against the class budget.
func (p *Policy) budgetCheck(class string, latency, storage int) (ok bool, reason string) {
	b, exists := p.cfg.Budgets[class]
	if !exists {
		return true, ""
	}
	if b.LatencyCycles > 0 && latency > b.LatencyCycles {
		return false, fmt.Sprintf("latency %d cycles over budget %d", latency, b.LatencyCycles)
	}
	if b.StorageBytes > 0 && storage > b.StorageBytes {
		return false, fmt.Sprintf("storage %d bytes over budget %d", storage, b.StorageBytes)
	}
	return true, ""
}

// ObserveLive feeds one shadow-compared inference batch of a *served*
// version into the class's live window: match of total labels agreed with
// the source class. When a window completes below DivergeThreshold for
// DivergeWindows consecutive windows, the registered rollback callback runs
// (with no policy lock held) and the decision is logged. This is the serving
// hot path: steady-state calls take one mutex and touch a few counters,
// allocation-free (gated in CI by BenchmarkPolicyDecision).
func (p *Policy) ObserveLive(class string, ver uint64, match, total uint64) {
	if total == 0 {
		return
	}
	p.mu.Lock()
	g := p.live[class]
	if g == nil {
		p.mu.Unlock()
		return
	}
	if g.ver != ver {
		// New served version (publish or rollback): fresh window, no
		// carried-over divergence.
		g.ver, g.match, g.total, g.divergent = ver, 0, 0, 0
	}
	g.match += match
	g.total += total
	if g.total < uint64(p.cfg.LiveWindow) {
		p.mu.Unlock()
		return
	}
	agree := float64(g.match) / float64(g.total)
	labels := g.total
	g.agree = agree
	g.windows++
	g.match, g.total = 0, 0
	if agree >= p.cfg.DivergeThreshold {
		g.divergent = 0
		p.mu.Unlock()
		return
	}
	g.divergent++
	div := g.divergent
	if div >= p.cfg.DivergeWindows {
		// Full hysteresis before any retry: a failed rollback (nothing to
		// roll back to) should not re-fire on every subsequent window.
		g.divergent = 0
	}
	p.mu.Unlock()
	if div < p.cfg.DivergeWindows {
		return
	}
	p.rollbackDiverged(class, ver, agree, div, labels)
}

// rollbackDiverged runs the class's registered rollback callback and records
// the decision. Called with no policy lock held.
func (p *Policy) rollbackDiverged(class string, from uint64, agree float64, windows int, labels uint64) {
	fn := p.rollbackFn[class]
	d := Decision{
		Class:     class,
		Action:    ActionRollback,
		Agreement: agree,
		Batches:   windows,
		Labels:    labels,
	}
	if fn == nil {
		d.Reason = fmt.Sprintf("live agreement %.3f < %.2f for %d windows; no rollback registered for %s",
			agree, p.cfg.DivergeThreshold, windows, class)
		p.log.append(d)
		return
	}
	to, err := fn()
	if err != nil {
		d.Reason = fmt.Sprintf("live agreement %.3f < %.2f for %d windows; rollback failed: %v",
			agree, p.cfg.DivergeThreshold, windows, err)
		p.log.append(d)
		return
	}
	p.rolledBack.Add(1)
	d.Version = to
	d.Reason = fmt.Sprintf("live agreement %.3f < %.2f for %d consecutive windows; rolled back v%d -> v%d",
		agree, p.cfg.DivergeThreshold, windows, from, to)
	p.log.append(d)
}

// record appends a decision to the log and bumps the action counter.
func (p *Policy) record(d Decision) Decision {
	switch d.Action {
	case ActionAdmit:
		p.admitted.Add(1)
	case ActionHold:
		p.held.Add(1)
	case ActionRollback:
		p.rolledBack.Add(1)
	case ActionSkip:
		p.skipped.Add(1)
	}
	return p.log.append(d)
}

// Decisions returns the retained decision log, oldest first.
func (p *Policy) Decisions() []Decision { return p.log.snapshot() }

// GateState is one class's point-in-time gate status. Its JSON form is the
// wire's gate row of the policy and stats verbs.
type GateState struct {
	Class            string  `json:"class"`
	PendingBatches   int     `json:"pending_batches"`        // admission shadow batches accumulated so far
	PendingAgreement float64 `json:"pending_agreement"`      // agreement over the open admission window
	LiveVersion      uint64  `json:"live_version,omitempty"` // version the live window is accumulating for
	LiveAgreement    float64 `json:"live_agreement"`         // agreement of the last completed live window
	LiveWindows      uint64  `json:"live_windows"`           // completed live windows
	Divergent        int     `json:"divergent"`              // consecutive divergent live windows
}

// PolicyStats is the `stats` verb summary of the engine, in its wire form.
type PolicyStats struct {
	Admitted   uint64      `json:"admitted"`
	Held       uint64      `json:"held"`
	RolledBack uint64      `json:"rolled_back"`
	Skipped    uint64      `json:"skipped"`
	Decisions  uint64      `json:"decisions"` // decisions ever recorded (the log may have evicted early ones)
	Gates      []GateState `json:"gates,omitempty"`
}

// Stats snapshots the engine's counters and per-class gate states.
func (p *Policy) Stats() PolicyStats {
	st := PolicyStats{
		Admitted:   p.admitted.Load(),
		Held:       p.held.Load(),
		RolledBack: p.rolledBack.Load(),
		Skipped:    p.skipped.Load(),
		Decisions:  p.log.total(),
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, class := range p.classes {
		a, l := p.admit[class], p.live[class]
		g := GateState{
			Class: class, PendingBatches: a.batches,
			LiveVersion: l.ver, LiveAgreement: l.agree, LiveWindows: l.windows, Divergent: l.divergent,
		}
		if a.total > 0 {
			g.PendingAgreement = float64(a.match) / float64(a.total)
		}
		st.Gates = append(st.Gates, g)
	}
	return st
}

// meanCosine averages per-layer tabularization fidelity diagnostics.
func meanCosine(cos []float64) float64 {
	if len(cos) == 0 {
		return 0
	}
	var s float64
	for _, c := range cos {
		s += c
	}
	return s / float64(len(cos))
}

// paramDelta is the relative L2 parameter distance between two
// identically-shaped networks: ||a-b|| / ||a||. Used for incremental
// re-tabularization — a source delta below MinSourceDelta means the rebuilt
// table would come out nearly identical to the one already serving.
func paramDelta(a, b nn.Layer) float64 {
	ap, bp := a.Params(), b.Params()
	if len(ap) != len(bp) {
		return math.Inf(1) // different shapes: always a full rebuild
	}
	var diff, norm float64
	for i := range ap {
		aw, bw := ap[i].W.Data, bp[i].W.Data
		if len(aw) != len(bw) {
			return math.Inf(1)
		}
		for j := range aw {
			d := aw[j] - bw[j]
			diff += d * d
			norm += aw[j] * aw[j]
		}
	}
	if norm == 0 {
		if diff == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Sqrt(diff / norm)
}
