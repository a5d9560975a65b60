// Package serve is the online multi-session prefetch serving engine: the
// layer that turns the offline DART artifacts of this repository into a
// long-running daemon multiplexing many access streams (one session per
// simulated core or tenant) through the shared batched inference kernels.
//
// Architecture (see README.md for the wire protocol):
//
//   - Sessions live in one map under one RWMutex. Wire clients look their
//     session up once per frame and session actors never touch the map, so
//     the lock stays off the per-access path.
//   - Each session is an actor: a goroutine draining a bounded inbox.
//     Enqueueing into a full inbox blocks — backpressure propagates to the
//     producer (and, through the TCP server, to the client) instead of
//     buffering unboundedly. In-order per-session delivery is the actor
//     loop's FIFO order.
//   - Sessions of a model class (the static DART tables, or a class of the
//     online learner's teacher → student → dart table) do not query the
//     model directly: they publish their prepared input to their class's
//     admission batcher, which coalesces concurrently-arriving queries from
//     many sessions into one batched inference call whose kernels fan
//     out through internal/par. The engine keeps one class table; every row
//     is built by the same constructor (addClass).
//   - Every session drives an incremental sim.Sim, so per-session statistics
//     are bit-identical to an offline sim.Run over the same records.
//   - Drain/Shutdown stop admission, let every inbox empty, flush the
//     batcher, and collect final per-session results.
package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"dart/internal/dataprep"
	"dart/internal/mat"
	"dart/internal/online"
	"dart/internal/prefetch"
	"dart/internal/sim"
	"dart/internal/tabular"
	"dart/internal/trace"
)

// Config tunes the engine. Zero values select sensible defaults.
type Config struct {
	QueueDepth int // per-session inbox capacity (default 64)
	MaxBatch   int // admission batcher coalescing cap (default 64)

	SimCfg sim.Config // machine model; zero value selects sim.DefaultConfig

	// Model, when non-nil, enables the "dart" prefetcher backed by the
	// shared table hierarchy; sessions keep private history state while
	// inference is coalesced across sessions.
	Model        *tabular.Hierarchy
	Data         dataprep.Config // input preprocessing for model sessions
	ModelLatency int             // modelled inference latency (cycles)
	ModelStorage int             // modelled storage (bytes)

	// Online, when non-nil, serves every class of the learner's class table
	// (online.Learner.Classes) under its prefetcher name: "online" for the
	// continually fine-tuned teacher, plus "student" and "dart" when the
	// learner runs those tiers. Each class gets its own admission batcher
	// that resolves the published version once per batch — no batch ever
	// mixes versions, a hot swap lands between batches — and degrades to
	// its source class (student → teacher, dart → student) while it has
	// published nothing yet. Sessions of these classes are tapped: their
	// access/outcome stream feeds the learner's training loop, and their
	// responses carry the version that served each access. A learner "dart"
	// class replaces the static Model-backed one above. The learner's
	// lifecycle (Start/Stop) belongs to the caller.
	Online *online.Learner

	// ShadowCompare enables the student tier's A/B mode: every student batch
	// is also run through the published teacher and the per-label
	// prediction agreement is accumulated into Stats.AB — a live fidelity
	// meter for the distilled model, paid for only on student batches and
	// only when enabled.
	ShadowCompare bool

	// Registry resolves prefetcher names; defaults to the built-ins
	// (none/bo/isb/stride) plus "dart" when Model is set.
	Registry *prefetch.Registry
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.SimCfg == (sim.Config{}) {
		c.SimCfg = sim.DefaultConfig()
	}
	if c.Data.History == 0 {
		c.Data = dataprep.Default()
	}
	if c.Registry == nil {
		c.Registry = prefetch.NewRegistry()
	}
	return c
}

// Interned protocol errors. The access path must stay allocation-free even
// on a miss (a client hammering a dead session id would otherwise churn
// garbage), so the common failures are shared sentinels without the session
// id in the message — wire replies carry the id in their own session field.
// Their texts are stable wire identifiers: Client maps them back to these
// values, so errors.Is classifies a remote failure like a local one.
var (
	ErrUnknownSession = errors.New("serve: unknown session")
	ErrSessionClosed  = errors.New("serve: session is closed")
)

// Response is what one served access produced: its session and the result
// every protocol reports. Seq counts per session from 1; Version is the
// online model version that served the access (0: not an online session, or
// no model query yet). Prefetches lists the block addresses issued (post
// admission) and aliases a buffer the session reuses on its next access:
// callbacks must consume or copy it before returning.
type Response struct {
	Session string
	AccessResult
}

// item is one queued access plus its completion callback — or, from the
// binary wire path, a whole frame of accesses carried as a job.
type item struct {
	rec trace.Record
	fn  func(Response)
	job *WireJob // when non-nil, rec/fn are unused
}

// session is the per-stream actor: private prefetcher state, an incremental
// simulator, and a FIFO inbox drained by one goroutine.
type session struct {
	id    string
	inbox chan item
	done  chan struct{}
	sim   *sim.Sim
	seq   uint64
	res   sim.Result // final result, valid after done closes

	// Model-class session state, zero otherwise. ver is written by the
	// batchedModel predictor inside Step and read after it (0 for the
	// unversioned static tables); ring, set for learner classes only,
	// receives each access with its prefetch outcome. Both are touched only
	// on the actor goroutine.
	ver  uint64
	ring *online.Ring

	// sendMu guards the inbox against close-while-sending: Submit sends
	// under the read lock (many producers, possibly blocking on a full
	// inbox), Close closes the channel under the write lock. The actor
	// never touches sendMu, so a blocked producer always drains.
	sendMu sync.RWMutex
	closed bool
}

func (s *session) run() {
	defer close(s.done)
	for it := range s.inbox {
		if it.job != nil {
			s.runJob(it.job)
			continue
		}
		r := s.step(it.rec)
		if it.fn != nil {
			it.fn(Response{Session: s.id, AccessResult: r})
		}
	}
	s.res = s.sim.Result()
}

// step advances the session's simulator by one record and performs the
// per-access actor bookkeeping: the sequence number and the learner ring
// tap. Every serving path — direct, JSON, and binary frames — funnels
// through here, which is what keeps their results bit-identical.
func (s *session) step(rec trace.Record) AccessResult {
	st := s.sim.Step(rec)
	s.seq++
	if s.ring != nil {
		// Tap the access and its prefetch outcome into the learner's
		// ring. Push is lock-free and lossy: training never
		// backpressures serving.
		s.ring.Push(online.Event{
			Access: sim.Access{InstrID: rec.InstrID, PC: rec.PC, Block: rec.Block(), Hit: st.Hit},
			Useful: st.Useful, Late: st.Late,
		})
	}
	return AccessResult{Seq: s.seq, Hit: st.Hit, Late: st.Late, Version: s.ver, Prefetches: st.Prefetches}
}

// Engine is the multi-session serving engine.
type Engine struct {
	cfg     Config
	classes map[string]*servingClass // model classes by prefetcher name; immutable after NewEngine
	learner *online.Learner          // == cfg.Online

	mu       sync.RWMutex
	sessions map[string]*session // guarded by mu
	draining bool                // guarded by mu: Drain has begun, opens fail

	accepted atomic.Uint64

	// ab accumulates the A/B shadow-compare of student batches against the
	// teacher; nil unless ShadowCompare is on and a student class serves.
	ab *abCounters
}

type abCounters struct{ batches, labels, agree atomic.Uint64 }

// servingClass is one row of the engine's model-class table: a prefetcher
// name sessions can open whose inference is coalesced across sessions by the
// row's own admission batcher.
type servingClass struct {
	name   string // prefetcher name the simulator reports
	data   dataprep.Config
	cost   func() (latency, storageBytes int) // modelled cost, read at session open
	tapped bool                               // learner class: sessions feed training
	b      *batcher
}

// prefetcher builds one session's private NNPrefetcher over the class's
// shared batcher, admitted under tenant and reporting the serving version
// of each query into *ver.
func (c *servingClass) prefetcher(tenant string, ver *uint64, degree int) *prefetch.NNPrefetcher {
	latency, storage := c.cost()
	return prefetch.NewNNPrefetcher(c.name, batchedModel{b: c.b, tenant: tenant, ver: ver},
		c.data, latency, storage, degree)
}

// NewEngine builds an engine from the config and fills its model-class
// table: the static cfg.Model tables as an unversioned "dart" class, then
// one class per row of cfg.Online's class table.
func NewEngine(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{cfg: cfg, learner: cfg.Online,
		classes:  make(map[string]*servingClass),
		sessions: make(map[string]*session)}
	if cfg.Model != nil {
		// The registry's "dart" is the offline reference for a static-table
		// session: the same tables queried inline, never through the
		// batcher. It goes on a private clone so the caller's registry is
		// never changed.
		e.cfg.Registry = cfg.Registry.Clone()
		e.cfg.Registry.Register("dart", func(degree int) sim.Prefetcher {
			return prefetch.NewNNPrefetcher("DART", prefetch.TableModel{H: cfg.Model},
				cfg.Data, cfg.ModelLatency, cfg.ModelStorage, degree)
		})
		e.addClass("dart", &servingClass{
			name: "DART", data: cfg.Data,
			cost: func() (int, int) { return cfg.ModelLatency, cfg.ModelStorage },
		}, func(in *mat.Tensor) (*mat.Tensor, uint64, bool) {
			return cfg.Model.QueryBatch(in), 0, true
		}, nil, nil)
	}
	if e.learner == nil {
		return e
	}
	// Promotion policy engine (nil when the learner runs ungated). The
	// batchers feed it live served-vs-source agreement so it can roll back
	// a published version that diverges in production.
	pol := e.learner.Policy()
	for _, c := range e.learner.Classes() {
		// The A/B meter is defined as student-vs-teacher, so it reads the
		// student row only; the policy engine watches every derived class.
		ab := cfg.ShadowCompare && c.Name() == online.StudentClass
		if ab {
			e.ab = &abCounters{}
		}
		var observe func(ver, match, total uint64)
		if c.Source() != nil && (ab || pol != nil) {
			observe = func(ver, match, total uint64) {
				if ab {
					e.ab.agree.Add(match)
					e.ab.labels.Add(total)
					e.ab.batches.Add(1)
				}
				if pol != nil {
					pol.ObserveLive(c.Name(), ver, match, total)
				}
			}
		}
		e.addClass(c.Prefetcher(), &servingClass{
			name: c.Prefetcher(), data: e.learner.Data(), cost: c.Cost, tapped: true,
		}, c.Infer, c.Source(), observe)
	}
	return e
}

// addClass is the one place a model class gets its admission batcher. Each
// dispatched batch calls infer, which resolves the class's current version
// exactly once and runs the whole batch through it: a hot swap lands between
// batches, never inside one. While infer has nothing published the batch
// degrades to the source class's Infer; a published nn model's Forward stores
// nothing, so this batcher and the source's own may run it at once. With
// observe set, every batch the class itself served is also run through the
// source and the per-label agreement reported; the fallback path IS the
// source, so comparing it would always agree. A class without a source (the
// teacher, the static tables) must always have a version and takes no
// observe. The row is registered under key in the class table; a row
// registered later under the same key replaces the earlier one.
func (e *Engine) addClass(key string, c *servingClass,
	infer func(*mat.Tensor) (*mat.Tensor, uint64, bool),
	source *online.Class, observe func(ver, match, total uint64)) {
	c.b = newBatcher(func(in *mat.Tensor) (*mat.Tensor, uint64) {
		out, ver, ok := infer(in)
		if !ok {
			out, ver, _ := source.Infer(in)
			return out, ver
		}
		if observe != nil {
			src, _, _ := source.Infer(in)
			match, total := online.Agreement(out, src)
			observe(ver, match, total)
		}
		return out, ver
	}, e.cfg.MaxBatch)
	if old := e.classes[key]; old != nil {
		old.b.stop()
	}
	e.classes[key] = c
}

// lookup returns the live session or ErrUnknownSession.
func (e *Engine) lookup(id string) (*session, error) {
	e.mu.RLock()
	s := e.sessions[id]
	e.mu.RUnlock()
	if s == nil {
		return nil, ErrUnknownSession
	}
	return s, nil
}

// lookupBytes is lookup for a session id still in a wire buffer: the
// m[string(b)] map read compiles to a no-allocation lookup.
func (e *Engine) lookupBytes(id []byte) (*session, error) {
	e.mu.RLock()
	s := e.sessions[string(id)]
	e.mu.RUnlock()
	if s == nil {
		return nil, ErrUnknownSession
	}
	return s, nil
}

// SessionOptions configures one session at open. The zero value of every
// field selects the engine default, so Open(id, name, degree) is exactly
// OpenSession(id, SessionOptions{Prefetcher: name, Degree: degree}).
type SessionOptions struct {
	Prefetcher string
	Degree     int
	Tenant     string      // admission fair-share group (default "default")
	Weight     int         // fair-share weight in the admission batchers (default 1)
	SimCfg     *sim.Config // per-session machine model; nil = engine default
}

// Open creates a session with the named prefetcher and default options.
func (e *Engine) Open(id, prefetcher string, degree int) error {
	return e.OpenSession(id, SessionOptions{Prefetcher: prefetcher, Degree: degree})
}

// OpenSession creates a session. Every session gets a fresh prefetcher
// instance and its own incremental simulator (per-session cache hierarchy
// config via opt.SimCfg — the mixed-tenant replay matrix runs different
// machines side by side in one engine). The prefetcher name selects the
// serving class: a name in the engine's model-class table gets a private
// NNPrefetcher over that class's batcher, with the class's modelled cost in
// the simulator and its queries admitted under opt.Tenant's fair-share
// weight; any other name is a rule-based prefetcher from the registry.
// Sessions of a learner class are additionally tapped: their access/outcome
// stream feeds online training, and their responses carry the model version
// that served each access. A degree ≤ 0 selects 4. A degree above the session
// machine's MaxDegree is an error: the simulator would drop every candidate
// past it.
func (e *Engine) OpenSession(id string, opt SessionOptions) error {
	if id == "" {
		return fmt.Errorf("serve: empty session id")
	}
	simCfg := e.cfg.SimCfg
	if opt.SimCfg != nil {
		if err := opt.SimCfg.Validate(); err != nil {
			return err
		}
		simCfg = *opt.SimCfg
	}
	if opt.Degree <= 0 {
		opt.Degree = 4
	}
	if opt.Degree > simCfg.MaxDegree {
		return fmt.Errorf("serve: degree %d exceeds the session machine's MaxDegree %d", opt.Degree, simCfg.MaxDegree)
	}
	s := &session{
		id:    id,
		inbox: make(chan item, e.cfg.QueueDepth),
		done:  make(chan struct{}),
	}
	// Class resolution happens here, once per session, never per access.
	class := e.classes[opt.Prefetcher]
	var pf sim.Prefetcher
	if class != nil {
		pf = class.prefetcher(opt.Tenant, &s.ver, opt.Degree)
	} else {
		var err error
		pf, err = e.cfg.Registry.New(opt.Prefetcher, opt.Degree)
		if err != nil {
			return err
		}
	}
	s.sim = sim.NewSim(pf, simCfg)
	e.mu.Lock()
	// Drain sets draining under this lock, so an open either sees it and
	// fails or has already inserted its session where Drain will find it.
	if e.draining {
		e.mu.Unlock()
		return fmt.Errorf("serve: engine is draining")
	}
	if _, exists := e.sessions[id]; exists {
		e.mu.Unlock()
		return fmt.Errorf("serve: session %q already open", id)
	}
	e.sessions[id] = s
	e.mu.Unlock()
	// Only a session that won its id may touch shared state: a rejected
	// open must not reset a running tenant's weight or leave a duplicate
	// tap. Both happen before the actor starts — the weight before the
	// tenant's first query, the ring before the first step.
	if class != nil {
		class.b.setWeight(opt.Tenant, opt.Weight)
		if class.tapped {
			s.ring = e.learner.Attach(id)
		}
	}
	go s.run()
	return nil
}

// Submit enqueues one access for the session and invokes fn (which may be
// nil) from the session goroutine once the access has been simulated.
// Submit blocks while the session inbox is full — that is the engine's
// backpressure — and returns an error for unknown or closed sessions.
func (e *Engine) Submit(id string, rec trace.Record, fn func(Response)) error {
	s, err := e.lookup(id)
	if err != nil {
		return err
	}
	return e.enqueue(s, item{rec: rec, fn: fn}, 1)
}

// SubmitFrame is Submit for a decoded binary frame whose session id still
// sits in the connection's read buffer: the session actor encodes the reply
// in place (runJob) instead of calling back.
func (f engineFront) SubmitFrame(sid []byte, j *WireJob) error {
	s, err := f.lookupBytes(sid)
	if err != nil {
		return err
	}
	// Once sent, j belongs to the actor and then to the writer, which pools
	// it for the next frame of any connection: read it before the send.
	return f.enqueue(s, item{job: j}, uint64(len(j.recs)))
}

// enqueue sends it, carrying n accesses, to the session's actor, or returns
// ErrSessionClosed once the actor is gone.
func (e *Engine) enqueue(s *session, it item, n uint64) error {
	s.sendMu.RLock()
	if s.closed {
		s.sendMu.RUnlock()
		return ErrSessionClosed
	}
	// The read lock is held across the (possibly blocking) send so Close
	// cannot close the channel out from under it; the actor drains the
	// inbox without ever taking sendMu, so the send always completes.
	s.inbox <- it
	s.sendMu.RUnlock()
	e.accepted.Add(n)
	return nil
}

// Access is the synchronous form of Submit: it waits for the access to be
// simulated and returns the response.
func (e *Engine) Access(id string, rec trace.Record) (Response, error) {
	var resp Response
	ch := make(chan struct{})
	err := e.Submit(id, rec, func(r Response) {
		resp = r
		close(ch)
	})
	if err != nil {
		return Response{}, err
	}
	<-ch
	return resp, nil
}

// Close drains the session's queued accesses, finalises its simulator, and
// removes it from the map, returning the final per-session result.
func (e *Engine) Close(id string) (sim.Result, error) {
	s, err := e.lookup(id)
	if err != nil {
		return sim.Result{}, err
	}
	s.sendMu.Lock()
	if s.closed {
		s.sendMu.Unlock()
		return sim.Result{}, fmt.Errorf("serve: session %q already closing", id)
	}
	s.closed = true
	close(s.inbox)
	s.sendMu.Unlock()
	<-s.done
	if s.ring != nil {
		e.learner.Detach(id)
	}

	e.mu.Lock()
	delete(e.sessions, id)
	e.mu.Unlock()
	return s.res, nil
}

// Sessions lists the open session ids, sorted.
func (e *Engine) Sessions() []string {
	e.mu.RLock()
	ids := make([]string, 0, len(e.sessions))
	for id := range e.sessions {
		ids = append(ids, id)
	}
	e.mu.RUnlock()
	sort.Strings(ids)
	return ids
}

// Stats is a mid-stream engine snapshot. The batch counters aggregate every
// model class's admission batcher.
type Stats struct {
	Sessions int
	Accepted uint64                     // accesses admitted since start
	Batches  uint64                     // model batches dispatched
	Batched  uint64                     // model queries served through batches
	MaxBatch int                        // largest batch dispatched so far
	Tenants  map[string]TenantAdmission // fair-share admission view, all batchers
	Online   *online.Stats              // nil unless the engine has a learner
	AB       *ABStats                   // nil unless shadow-compare is enabled
	Policy   *online.PolicyStats        // nil unless the promotion policy engine is on
}

// ABStats is the student tier's A/B shadow-compare digest: how often the
// distilled student and its teacher land on the same side of the prediction
// threshold, per label, across every compared batch.
type ABStats struct {
	Batches uint64  `json:"batches"`    // student batches shadow-compared
	Labels  uint64  `json:"labels"`     // per-label comparisons
	Agree   uint64  `json:"agree"`      // comparisons where student == teacher
	Rate    float64 `json:"agree_rate"` // Agree / Labels (0 when nothing compared yet)
}

// StatsSnapshot gathers the engine's counters without stopping the actors.
func (e *Engine) StatsSnapshot() Stats {
	e.mu.RLock()
	st := Stats{Sessions: len(e.sessions), Accepted: e.accepted.Load()}
	e.mu.RUnlock()
	st.Batches, st.Batched, st.MaxBatch = e.batchStats()
	if t := e.TenantAdmissions(); len(t) > 0 {
		st.Tenants = t
	}
	if e.learner != nil {
		ls := e.learner.Stats()
		st.Online = &ls
		if pol := e.learner.Policy(); pol != nil {
			ps := pol.Stats()
			st.Policy = &ps
		}
	}
	if ab := e.abStats(); ab != nil {
		st.AB = ab
	}
	return st
}

// batchStats aggregates every model class's admission batcher: batches
// dispatched, queries served through them, and the largest batch.
func (e *Engine) batchStats() (batches, batched uint64, biggest int) {
	for _, c := range e.classes {
		n, q, big := c.b.stats()
		batches += n
		batched += q
		biggest = max(biggest, big)
	}
	return batches, batched, biggest
}

// TenantAdmissions aggregates the per-tenant fair-share admission stats over
// every batcher: queries and starvation counts sum, the worst wait wins, and
// the weight reported is the largest any batcher holds for the tenant.
func (e *Engine) TenantAdmissions() map[string]TenantAdmission {
	out := make(map[string]TenantAdmission)
	for _, c := range e.classes {
		for name, ta := range c.b.tenantStats() {
			agg := out[name]
			agg.Queries += ta.Queries
			agg.Starved += ta.Starved
			if ta.MaxWaitBatches > agg.MaxWaitBatches {
				agg.MaxWaitBatches = ta.MaxWaitBatches
			}
			if ta.Weight > agg.Weight {
				agg.Weight = ta.Weight
			}
			out[name] = agg
		}
	}
	return out
}

// abStats snapshots the shadow-compare accumulators; nil when the mode is
// off or no student batch has been compared yet.
func (e *Engine) abStats() *ABStats {
	if e.ab == nil {
		return nil
	}
	ab := &ABStats{
		Batches: e.ab.batches.Load(),
		Labels:  e.ab.labels.Load(),
		Agree:   e.ab.agree.Load(),
	}
	if ab.Labels > 0 {
		ab.Rate = float64(ab.Agree) / float64(ab.Labels)
	}
	return ab
}

// Learner exposes the online learner (nil when the engine has none); the
// wire server routes the model/swap/rollback verbs through it.
func (e *Engine) Learner() *online.Learner { return e.learner }

// Config returns the engine's effective configuration with defaults filled
// in: what an offline sim.Run needs to reproduce a session bit for bit. With
// Model set, the registry's "dart" queries those tables inline, never through
// the engine's batcher. Learner classes are not in the registry: they
// hot-swap under training and have no offline reference.
func (e *Engine) Config() Config { return e.cfg }

// Drain gracefully shuts the engine down: no new sessions are admitted,
// every open session's inbox is closed and drained in turn, and the batcher
// stops once the last model query has been answered. It returns the final
// result of every session that was still open, keyed by session id.
func (e *Engine) Drain() map[string]sim.Result {
	e.mu.Lock()
	e.draining = true
	e.mu.Unlock()
	out := make(map[string]sim.Result)
	// No session is added once draining is set, so the loop ends when the
	// map is empty; it repeats only for sessions a concurrent Close still
	// holds.
	for {
		ids := e.Sessions()
		if len(ids) == 0 {
			break
		}
		for _, id := range ids {
			s, err := e.lookup(id)
			if err != nil {
				continue // already closed and removed
			}
			res, err := e.Close(id)
			if err != nil {
				// Another goroutine (a client "close" op) is mid-close:
				// block until its drain finishes instead of spinning
				// through Sessions() while the inbox empties.
				<-s.done
				continue
			}
			out[id] = res
		}
	}
	for _, c := range e.classes {
		c.b.stop()
	}
	return out
}
