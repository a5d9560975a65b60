package serve

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"dart/internal/online"
	"dart/internal/sim"
	"dart/internal/trace"
)

// Hex64 is a uint64 that marshals as a 0x-prefixed hex string — addresses
// survive JSON untouched (numbers above 2^53 lose precision in many JSON
// decoders) and stay readable in packet dumps. Unmarshalling accepts hex
// strings, decimal strings, and plain JSON numbers.
type Hex64 uint64

// MarshalJSON renders 0x-prefixed hex.
func (h Hex64) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", "0x"+strconv.FormatUint(uint64(h), 16))), nil
}

// UnmarshalJSON accepts "0x..", "123", and 123.
func (h *Hex64) UnmarshalJSON(b []byte) error {
	s := strings.TrimSpace(string(b))
	if len(s) >= 2 && s[0] == '"' {
		var str string
		if err := json.Unmarshal(b, &str); err != nil {
			return err
		}
		s = strings.TrimSpace(str)
	}
	if s == "" {
		*h = 0
		return nil
	}
	base := 10
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		s, base = s[2:], 16
	}
	v, err := strconv.ParseUint(s, base, 64)
	if err != nil {
		return fmt.Errorf("serve: bad uint64 %q: %w", s, err)
	}
	*h = Hex64(v)
	return nil
}

// Route is how a verb is answered: the connection loop refuses a hot verb
// in a control frame and sends session verbs to the front's session table;
// for the other routes it is a router's fan-out rule.
type Route uint8

const (
	RouteSession Route = iota // the front's session table: open or close (a router places at the owner)
	RouteHot                  // framed hot path only; refused inside a control frame
	RouteMerge                // every backend, replies merged into one
	RouteOne                  // the first healthy backend answers
	RouteAll                  // every healthy backend; any failure fails the verb
)

// Verb is one row of the verb table: the op name, its route, and how a
// daemon answers it. Session verbs are written against a Front, so a router
// answers them with the same code over its own session table; every other
// non-hot verb is answered by the daemon's engine, or by a router's fan-out
// (Front.Answer).
type Verb struct {
	Name  string
	Route Route

	session func(f Front, req Request, opened map[string]struct{}) Reply
	engine  func(e *Engine, req Request) Reply
}

// Front is what a wire front end serves, and all that the connection loops
// (Acceptor.Serve) know of it: the session table the session verbs act on
// and reclaim closes a dropped connection's sessions through, the other
// control verbs, and the two hot paths. A daemon's engine serves each
// access on its session's actor; a router routes it on the connection's
// reader goroutine, finishing one request before the loop decodes the next.
type Front interface {
	OpenSession(id string, opt SessionOptions) error
	CloseSession(id string) (sim.Result, error)
	// Answer answers a verb whose row routes neither to the session table
	// nor to the hot path.
	Answer(v Verb, req Request) Reply
	// Submit serves one JSON access and calls fn (which may be nil) once
	// with its response, or returns why it could not.
	Submit(id string, rec trace.Record, fn func(Response)) error
	// SubmitFrame serves a decoded access or batch frame for session sid
	// and hands j, reply encoded, to the connection's writer, or returns
	// why it could not, leaving j with the caller. sid aliases the read
	// buffer and is valid only until SubmitFrame returns.
	SubmitFrame(sid []byte, j *WireJob) error
}

// VerbTable is the protocol's verb table.
type VerbTable []Verb

// Lookup returns the row for op.
func (t VerbTable) Lookup(op string) (Verb, bool) {
	for _, v := range t {
		if v.Name == op {
			return v, true
		}
	}
	return Verb{}, false
}

// Verbs is every wire verb of the serving protocol, in both encodings: the
// JSON op strings, which the binary protocol reuses for control frames, plus
// the binary-only "batch" hot verb. Every connection loop dispatches through
// it (Control) — a daemon answers a row by its handler, a router by its
// Route — so adding a verb is one row here. docs/PROTOCOL.md must document
// each one; cmd/dart-doccheck enforces that in CI.
var Verbs = VerbTable{
	{Name: "open", Route: RouteSession, session: openVerb},
	{Name: "access", Route: RouteHot},
	{Name: "batch", Route: RouteHot},
	{Name: "close", Route: RouteSession, session: closeVerb},
	{Name: "stats", Route: RouteMerge, engine: statsVerb},
	{Name: "model", Route: RouteOne, engine: withLearner(classVerb(nil))},
	{Name: "swap", Route: RouteAll, engine: withLearner(classVerb((*online.Class).Swap))},
	{Name: "rollback", Route: RouteAll, engine: withLearner(classVerb((*online.Class).Rollback))},
	{Name: "classes", Route: RouteOne, engine: withLearner(classesVerb)},
	{Name: "policy", Route: RouteOne, engine: withLearner(policyVerb)},
}

// openVerb opens req.Session with the full SessionOptions surface.
func openVerb(f Front, req Request, opened map[string]struct{}) Reply {
	err := f.OpenSession(req.Session, SessionOptions{
		Prefetcher: req.Prefetcher,
		Degree:     req.Degree,
		Tenant:     req.Tenant,
		Weight:     req.Weight,
		SimCfg:     req.Sim,
	})
	if err != nil {
		return errReply(req.Session, err)
	}
	if opened != nil {
		opened[req.Session] = struct{}{}
	}
	return Reply{OK: true, Session: req.Session}
}

// closeVerb closes req.Session and returns its final simulator result.
func closeVerb(f Front, req Request, opened map[string]struct{}) Reply {
	res, err := f.CloseSession(req.Session)
	if err != nil {
		return errReply(req.Session, err)
	}
	delete(opened, req.Session)
	return Reply{OK: true, Session: req.Session, Result: &res}
}

// Request is one line of the client→server protocol. Op selects the action:
//
//	open     {"op":"open","session":"s1","prefetcher":"stride","degree":4}
//	access   {"op":"access","session":"s1","instr_id":12,"pc":"0x400000","addr":"0x10000040","is_load":true}
//	close    {"op":"close","session":"s1"}
//	stats    {"op":"stats"}
//	model    {"op":"model"}     online-learner snapshot (version, throughput, loss trend)
//	swap     {"op":"swap"}      force-publish the training shadow as a new version
//	rollback {"op":"rollback"}  revert serving to the previous version
//	classes  {"op":"classes"}   list every serving class with its versions and modelled cost
//	policy   {"op":"policy"}    promotion-policy decision log and per-class gate state
//
// The model/swap/rollback verbs accept a model-class selector: "class":""
// (or omitted) addresses the online teacher, "class":"student" the distilled
// student tier, "class":"dart" the tabularized table tier, e.g.
// {"op":"swap","class":"dart"} (a forced re-tabularize + publish).
//
// The open verb accepts the full serve.SessionOptions surface: tenant and
// weight route the session's model-class queries through the fair-share
// admission batchers, and sim overrides the engine's machine model for this
// session (the mixed-tenant matrix runs different cache hierarchies side by
// side through one daemon).
type Request struct {
	Op         string      `json:"op"`
	Session    string      `json:"session,omitempty"`
	Prefetcher string      `json:"prefetcher,omitempty"`
	Degree     int         `json:"degree,omitempty"`
	Class      string      `json:"class,omitempty"`
	InstrID    uint64      `json:"instr_id,omitempty"`
	PC         Hex64       `json:"pc,omitempty"`
	Addr       Hex64       `json:"addr,omitempty"`
	IsLoad     bool        `json:"is_load,omitempty"`
	Tenant     string      `json:"tenant,omitempty"`
	Weight     int         `json:"weight,omitempty"`
	Sim        *sim.Config `json:"sim,omitempty"`
}

// Record converts an access request to a trace record.
func (r Request) Record() trace.Record {
	return trace.Record{InstrID: r.InstrID, PC: uint64(r.PC), Addr: uint64(r.Addr), IsLoad: r.IsLoad}
}

// Reply is one line of the server→client protocol. Every reply carries OK
// (with Err set when false); access replies add Seq/Hit/Late/Prefetch (and
// Version on online sessions), close replies add the final Result, stats
// replies add Stats, and model/swap/rollback replies add Online.
type Reply struct {
	OK       bool         `json:"ok"`
	Err      string       `json:"error,omitempty"`
	Session  string       `json:"session,omitempty"`
	Seq      uint64       `json:"seq,omitempty"`
	Hit      bool         `json:"hit,omitempty"`
	Late     bool         `json:"late,omitempty"`
	Prefetch []Hex64      `json:"prefetch,omitempty"`
	Version  uint64       `json:"version,omitempty"`
	Result   *sim.Result  `json:"result,omitempty"`
	Stats    *StatsReply  `json:"stats,omitempty"`
	Online   *OnlineReply `json:"online,omitempty"`
	Classes  []ClassReply `json:"classes,omitempty"`
	Policy   *PolicyReply `json:"policy,omitempty"`
}

// ClassReply is one row of the classes verb: a serving class of the
// versioned store with its current version, held rollback versions, publish
// count, and modelled cost.
type ClassReply struct {
	Class        string   `json:"class"`
	Version      uint64   `json:"version"`
	Versions     []uint64 `json:"versions,omitempty"`
	Published    uint64   `json:"published"`
	Latency      int      `json:"latency_cycles"`
	StorageBytes int      `json:"storage_bytes"`
}

// classesReply converts the learner's class table to the wire form.
func classesReply(cs []*online.Class) []ClassReply {
	out := make([]ClassReply, len(cs))
	for i, c := range cs {
		latency, storage := c.Cost()
		out[i] = ClassReply{
			Class:        c.Name(),
			Version:      c.Version(),
			Versions:     c.Versions(),
			Published:    c.Published(),
			Latency:      latency,
			StorageBytes: storage,
		}
	}
	return out
}

// StatsReply is the wire form of Stats. A dart-router answers the stats verb
// with the counters summed across its healthy backends (MaxBatch is the max)
// and one Backends row per configured backend; a single daemon leaves
// Backends empty.
type StatsReply struct {
	Sessions int          `json:"sessions"`
	Accepted uint64       `json:"accepted"`
	Batches  uint64       `json:"batches"`
	Batched  uint64       `json:"batched"`
	MaxBatch int          `json:"max_batch"`
	Online   *OnlineReply `json:"online,omitempty"`
	AB       *ABReply     `json:"ab,omitempty"`
	Policy   *PolicyReply `json:"policy,omitempty"`

	Backends []BackendStat `json:"backends,omitempty"`
}

// BackendStat is one backend's row in a router's merged stats reply.
type BackendStat struct {
	Name     string `json:"name"`
	Addr     string `json:"addr"`
	Healthy  bool   `json:"healthy"`
	Sessions int    `json:"sessions"` // router sessions currently owned by this backend
	Tenants  int    `json:"tenants"`  // tenants the ring currently assigns to it
	Err      string `json:"error,omitempty"`
}

// ABReply is the wire form of the student tier's shadow-compare digest.
type ABReply struct {
	Batches   uint64  `json:"batches"`
	Labels    uint64  `json:"labels"`
	Agree     uint64  `json:"agree"`
	AgreeRate float64 `json:"agree_rate"`
}

// abReply converts engine A/B stats to the wire form.
func abReply(ab *ABStats) *ABReply {
	if ab == nil {
		return nil
	}
	return &ABReply{Batches: ab.Batches, Labels: ab.Labels, Agree: ab.Agree, AgreeRate: ab.Rate}
}

// OnlineReply is the wire form of the online learner's state: the served
// model version, feedback ingest throughput, the online-loss trend, and —
// when those tiers run — the student and dart classes' versions and
// counters. The learner's own snapshot carries the wire field names, so
// there is one struct, not a mirrored pair to keep in step.
type OnlineReply = online.Stats

// PolicyReply is the wire form of the promotion policy engine: lifetime
// action counters, the per-class gate states, and — on the policy verb —
// the retained decision log, oldest first. The stats verb carries the
// counters and gates only.
type PolicyReply struct {
	Enabled    bool           `json:"enabled"`
	Admitted   uint64         `json:"admitted"`
	Held       uint64         `json:"held"`
	RolledBack uint64         `json:"rolled_back"`
	Skipped    uint64         `json:"skipped"`
	Decisions  uint64         `json:"decisions"`
	Gates      []GateReply    `json:"gates,omitempty"`
	Log        []DecisionLine `json:"log,omitempty"`
}

// GateReply is one class's gate state in a policy reply.
type GateReply struct {
	Class            string  `json:"class"`
	PendingBatches   int     `json:"pending_batches"`
	PendingAgreement float64 `json:"pending_agreement"`
	LiveVersion      uint64  `json:"live_version,omitempty"`
	LiveAgreement    float64 `json:"live_agreement"`
	LiveWindows      uint64  `json:"live_windows"`
	Divergent        int     `json:"divergent"`
}

// DecisionLine is one decision-log entry on the wire, evidence included.
type DecisionLine struct {
	Seq       uint64  `json:"seq"`
	Time      string  `json:"time"` // RFC 3339, millisecond precision
	Class     string  `json:"class"`
	Action    string  `json:"action"`
	Version   uint64  `json:"version,omitempty"`
	Reason    string  `json:"reason"`
	Agreement float64 `json:"agreement,omitempty"`
	Batches   int     `json:"batches,omitempty"`
	Labels    uint64  `json:"labels,omitempty"`
	Cosine    float64 `json:"cosine,omitempty"`
	Latency   int     `json:"latency_cycles,omitempty"`
	Storage   int     `json:"storage_bytes,omitempty"`
}

// policyReply converts engine policy stats (and, when non-nil, the decision
// log) to the wire form.
func policyReply(st *online.PolicyStats, log []online.Decision) *PolicyReply {
	if st == nil {
		return nil
	}
	pr := &PolicyReply{
		Enabled:    true,
		Admitted:   st.Admitted,
		Held:       st.Held,
		RolledBack: st.RolledBack,
		Skipped:    st.Skipped,
		Decisions:  st.Decisions,
	}
	for _, g := range st.Gates {
		pr.Gates = append(pr.Gates, GateReply{
			Class:            g.Class,
			PendingBatches:   g.PendingBatches,
			PendingAgreement: g.PendingAgreement,
			LiveVersion:      g.LiveVersion,
			LiveAgreement:    g.LiveAgreement,
			LiveWindows:      g.LiveWindows,
			Divergent:        g.Divergent,
		})
	}
	for _, d := range log {
		pr.Log = append(pr.Log, DecisionLine{
			Seq:       d.Seq,
			Time:      d.Time.UTC().Format("2006-01-02T15:04:05.000Z07:00"),
			Class:     d.Class,
			Action:    d.Action,
			Version:   d.Version,
			Reason:    d.Reason,
			Agreement: d.Agreement,
			Batches:   d.Batches,
			Labels:    d.Labels,
			Cosine:    d.Cosine,
			Latency:   d.LatencyCycles,
			Storage:   d.StorageBytes,
		})
	}
	return pr
}

// errReply builds a failure line.
func errReply(session string, err error) Reply {
	return Reply{OK: false, Err: err.Error(), Session: session}
}

// AccessReply is the JSON reply to one served access.
func AccessReply(session string, r AccessResult) Reply {
	pf := make([]Hex64, len(r.Prefetches))
	for i, b := range r.Prefetches {
		pf[i] = Hex64(b)
	}
	return Reply{
		OK: true, Session: session, Seq: r.Seq,
		Hit: r.Hit, Late: r.Late, Prefetch: pf, Version: r.Version,
	}
}

// MarshalReply encodes a reply as JSON — a JSON-protocol line, or the
// payload of a control-reply frame — falling back to a fixed failure reply
// should the encoding fail.
func MarshalReply(r Reply) []byte {
	b, err := json.Marshal(r)
	if err != nil {
		return []byte(`{"ok":false,"error":"serve: reply marshal failed"}`)
	}
	return b
}
