package online

import (
	"encoding/json"
	"sync"
	"time"
)

// Decision is one promotion-control-plane verdict: a candidate admitted or
// held at the gate, a published version rolled back on live divergence, or a
// duty cycle skipped before a candidate was even built. Every decision
// carries the evidence it was made on, so an operator reading the `policy`
// verb can reconstruct why the serving classes look the way they do. Its
// JSON form is the wire's decision-log line.
type Decision struct {
	Seq    uint64    `json:"seq"`    // monotonically increasing across all classes
	Time   time.Time `json:"time"`   // when the decision was taken
	Class  string    `json:"class"`  // "teacher", "student", "dart"
	Action string    `json:"action"` // "admit", "hold", "rollback", "skip"
	// Version is the class version the decision concerns: the published
	// version for admits, the version rolled back *to* for rollbacks, and 0
	// for held or skipped candidates (they never became a version).
	Version uint64 `json:"version,omitempty"`
	Reason  string `json:"reason"` // human-readable grounds, e.g. "agreement 0.42 < 0.70 over 8 batches"

	// Agreement evidence: the candidate-vs-source (admit/hold) or live
	// served-vs-source (rollback) agreement fraction, with the window size
	// it was measured over. Zero for skips and ungated (forced or teacher)
	// admits, where no shadow comparison ran.
	Agreement float64 `json:"agreement,omitempty"` // fraction of labels on the same side of the decision boundary
	Batches   int     `json:"batches,omitempty"`   // shadow batches (admission) or live windows (rollback) measured
	Labels    uint64  `json:"labels,omitempty"`    // labels compared across the window

	// Cosine is the mean per-layer tabularization fidelity of the candidate
	// hierarchy (tabular.Result.Cosine); dart decisions only.
	Cosine float64 `json:"cosine,omitempty"`

	// Modelled per-class cost of the candidate at decision time, checked
	// against the configured budget (admission only).
	LatencyCycles int `json:"latency_cycles,omitempty"`
	StorageBytes  int `json:"storage_bytes,omitempty"`
}

// MarshalJSON writes Time in UTC at millisecond precision (RFC 3339). The
// overriding fields come before the embedded rest, which keeps seq and time
// first in the object.
func (d Decision) MarshalJSON() ([]byte, error) {
	type fields Decision
	return json.Marshal(struct {
		Seq  uint64 `json:"seq"`
		Time string `json:"time"`
		fields
	}{d.Seq, d.Time.UTC().Format("2006-01-02T15:04:05.000Z07:00"), fields(d)})
}

// decisionLog is a bounded append-only ring of decisions. The cap bounds
// memory for an arbitrarily long-lived daemon; readers get a copy in
// oldest-first order.
type decisionLog struct {
	mu  sync.Mutex
	buf []Decision
	w   int // next write slot
	n   int // valid entries
	seq uint64
}

func newDecisionLog(cap int) *decisionLog {
	return &decisionLog{buf: make([]Decision, cap)}
}

// append stamps the sequence number and time and records the decision,
// overwriting the oldest entry when full. It returns the stamped decision.
func (dl *decisionLog) append(d Decision) Decision {
	dl.mu.Lock()
	dl.seq++
	d.Seq = dl.seq
	d.Time = time.Now()
	dl.buf[dl.w] = d
	dl.w = (dl.w + 1) % len(dl.buf)
	if dl.n < len(dl.buf) {
		dl.n++
	}
	dl.mu.Unlock()
	return d
}

// snapshot returns the retained decisions, oldest first.
func (dl *decisionLog) snapshot() []Decision {
	dl.mu.Lock()
	defer dl.mu.Unlock()
	out := make([]Decision, dl.n)
	start := (dl.w - dl.n + len(dl.buf)) % len(dl.buf)
	for i := 0; i < dl.n; i++ {
		out[i] = dl.buf[(start+i)%len(dl.buf)]
	}
	return out
}

// total returns how many decisions were ever appended (the ring may have
// evicted early ones).
func (dl *decisionLog) total() uint64 {
	dl.mu.Lock()
	defer dl.mu.Unlock()
	return dl.seq
}
