package route

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"dart/internal/serve"
	"dart/internal/sim"
	"dart/internal/trace"
)

// BackendSpec names one dart-serve backend shard.
type BackendSpec struct {
	Name string // stable shard name (hash-ring identity)
	Addr string // host:port of the backend daemon
}

// Config configures a Router.
type Config struct {
	Backends []BackendSpec

	PoolSize int           // pooled binary connections per backend (default 2)
	Timeout  time.Duration // per-call deadline on backend calls (default 2s)

	HealthInterval time.Duration // probe cadence (default 250ms; < 0 disables the prober)
	HealthFails    int           // consecutive probe failures before eject (default 2)

	BoundFactor float64 // CHWBL load bound c (default 1.25)
	Replicas    int     // virtual ring points per backend (default 64)

	Logf func(format string, args ...any) // optional event log (eject/readmit/migrate)
}

// Router owns the sharding state: the bounded-load ring over the configured
// backends, per-backend health and pooled binary connections, and one record
// journal per open session. Sessions are placed by hashing their tenant onto
// the ring; when a backend is ejected (health) or a pooled connection dies
// mid-call, the session's owner is cleared and the next access transparently
// reopens it at the ring's current choice, replaying the journal first — so
// the new backend rebuilds the exact prefetcher and simulator state and
// deterministic serving classes stay bit-identical to a single-node run,
// straight through backend leave and join. The journal costs memory
// proportional to each session's served accesses: the right trade for replay
// and evaluation scale, and the reason a closed session frees everything.
type Router struct {
	cfg      Config
	ring     *Ring
	backends map[string]*backend // by name; fixed by NewRouter
	order    []*backend          // config order, for stable fan-out; fixed by NewRouter

	mu       sync.Mutex
	sessions map[string]*rsession
	closed   bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// backend is one shard: its health state, its pooled connections for hot
// verbs, and one dedicated opener connection for session opens.
//
// The split matters because a dart-serve backend reclaims every session that
// was opened over a connection when that connection closes. Opening sessions
// over pooled connections would tie their lifetime to pool churn — a surplus
// conn closed at checkin would silently kill the live sessions it had opened.
// The opener lives as long as the backend stays healthy, so a session dies at
// its backend only when the backend itself does — and then the journal
// rebuilds it elsewhere.
type backend struct {
	name, addr string

	mu      sync.Mutex
	pool    []*serve.Client
	healthy bool
	fails   int       // consecutive probe failures
	skipTo  time.Time // backoff: no probes before this while ejected

	openMu sync.Mutex    // serialises opens/catch-ups; held only in openAt and teardown
	opener *serve.Client // long-lived open/catch-up connection; nil until first open
}

// rsession is one routed session. mu serialises the session's own calls;
// owner has its own word-sized lock because health-driven detach/rebalance
// must clear it from other goroutines — including ones that already hold
// this session's mu further up the stack (markFailure inside Access).
type rsession struct {
	mu      sync.Mutex
	id      string
	tenant  string // ring key: the tenant, or the session id when untenanted
	opt     serve.SessionOptions
	journal []trace.Record // every acked record, in order — the migration source of truth
	res     []serve.AccessResult
	pf      []uint64

	ownMu sync.Mutex
	owner string // backend currently holding the live session; "" = none
}

func (s *rsession) getOwner() string {
	s.ownMu.Lock()
	defer s.ownMu.Unlock()
	return s.owner
}

func (s *rsession) setOwner(name string) {
	s.ownMu.Lock()
	s.owner = name
	s.ownMu.Unlock()
}

// clearOwnerIf detaches s when name owns it (or unconditionally for "").
func (s *rsession) clearOwnerIf(name string) {
	s.ownMu.Lock()
	if name == "" || s.owner == name {
		s.owner = ""
	}
	s.ownMu.Unlock()
}

// moveOwner detaches s when a live owner differs from target, returning the
// old owner for a graceful drain.
func (s *rsession) moveOwner(target string) (old string, moved bool) {
	s.ownMu.Lock()
	defer s.ownMu.Unlock()
	if s.owner == "" || s.owner == target {
		return "", false
	}
	old = s.owner
	s.owner = ""
	return old, true
}

var errNoBackends = errors.New("route: no healthy backend")

// NewRouter validates the config and builds the router. It does not dial
// anything: backends start healthy and are ejected by use or by the prober.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("route: no backends configured")
	}
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = 2
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 250 * time.Millisecond
	}
	if cfg.HealthFails <= 0 {
		cfg.HealthFails = 2
	}
	r := &Router{
		cfg:      cfg,
		backends: make(map[string]*backend, len(cfg.Backends)),
		sessions: make(map[string]*rsession),
		stop:     make(chan struct{}),
	}
	names := make([]string, 0, len(cfg.Backends))
	for _, b := range cfg.Backends {
		if b.Name == "" || b.Addr == "" {
			return nil, fmt.Errorf("route: backend needs a name and an addr: %+v", b)
		}
		if r.backends[b.Name] != nil {
			return nil, fmt.Errorf("route: duplicate backend %q", b.Name)
		}
		be := &backend{name: b.Name, addr: b.Addr, healthy: true}
		r.backends[b.Name] = be
		r.order = append(r.order, be)
		names = append(names, b.Name)
	}
	r.ring = NewRing(names, cfg.Replicas, cfg.BoundFactor)
	if cfg.HealthInterval > 0 {
		r.wg.Add(1)
		go r.prober()
	}
	return r, nil
}

func (r *Router) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// Close stops the prober and closes every backend connection, opener
// included — which lets each backend reclaim the sessions this router had
// opened (their journals die with the router, so leaving them live would
// only leak actors).
func (r *Router) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	close(r.stop)
	r.wg.Wait()
	for _, b := range r.order {
		b.mu.Lock()
		b.dropPool()
		b.mu.Unlock()
		b.dropOpener()
	}
}

// checkout takes a pooled connection to b, dialing a fresh one when the pool
// is empty.
func (r *Router) checkout(b *backend) (*serve.Client, error) {
	b.mu.Lock()
	if n := len(b.pool); n > 0 {
		c := b.pool[n-1]
		b.pool = b.pool[:n-1]
		b.mu.Unlock()
		return c, nil
	}
	b.mu.Unlock()
	return serve.Connect(b.addr, serve.WithTimeout(r.cfg.Timeout))
}

// checkin returns a connection to b's pool; poisoned or surplus connections
// are closed instead.
func (r *Router) checkin(b *backend, c *serve.Client) {
	if c.Broken() != nil {
		c.Close()
		return
	}
	b.mu.Lock()
	if b.healthy && len(b.pool) < r.cfg.PoolSize {
		b.pool = append(b.pool, c)
		b.mu.Unlock()
		return
	}
	b.mu.Unlock()
	c.Close()
}

func (b *backend) isHealthy() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.healthy
}

// dropPool closes b's pooled connections; the caller holds b.mu.
func (b *backend) dropPool() {
	for _, c := range b.pool {
		c.Close()
	}
	b.pool = nil
}

// dropOpener closes b's opener connection.
func (b *backend) dropOpener() {
	b.openMu.Lock()
	if b.opener != nil {
		b.opener.Close()
		b.opener = nil
	}
	b.openMu.Unlock()
}

// markFailure records a transport-level failure against b. Reaching the
// consecutive-failure threshold ejects the backend: its pool is discarded
// and every session it owned is detached so the next access re-places it.
func (r *Router) markFailure(b *backend, err error) {
	b.mu.Lock()
	b.fails++
	eject := b.healthy && b.fails >= r.cfg.HealthFails
	if eject {
		b.healthy = false
		b.skipTo = time.Now().Add(r.cfg.HealthInterval)
		b.dropPool()
	}
	b.mu.Unlock()
	if eject {
		b.dropOpener()
		r.logf("route: backend %s ejected: %v", b.name, err)
		r.detachSessions(b.name)
	}
}

// markSuccess resets b's failure count; a success on an ejected backend
// readmits it and rebalances.
func (r *Router) markSuccess(b *backend) {
	b.mu.Lock()
	b.fails = 0
	readmit := !b.healthy
	b.healthy = true
	b.mu.Unlock()
	if readmit {
		r.logf("route: backend %s readmitted", b.name)
		r.rebalance()
	}
}

// detachSessions clears ownership for every session owned by the named
// backend (its live state is gone or unreachable); each reopens at the
// ring's next choice on its next access, journal first.
func (r *Router) detachSessions(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.sessions {
		s.clearOwnerIf(name)
	}
}

// rebalance recomputes the full deterministic placement after a membership
// change and gracefully drains every session whose owner moved: close at the
// current owner (frees the backend's actor), detach, and let the next access
// reopen at the new owner with a journal catch-up.
func (r *Router) rebalance() {
	alive := r.alive()
	r.mu.Lock()
	ids := slices.Sorted(maps.Keys(r.sessions))
	ss := make([]*rsession, len(ids))
	ringKeys := make([]string, len(ids))
	for i, id := range ids {
		ss[i] = r.sessions[id]
		ringKeys[i] = ss[i].tenant
	}
	r.mu.Unlock()

	want := r.ring.Placement(ringKeys, alive)
	if want == nil {
		return
	}
	for i, id := range ids {
		if old, moved := ss[i].moveOwner(want[i]); moved {
			r.closeAt(old, id) // best-effort graceful drain at the old owner
			r.logf("route: session %s drained from %s (rebalance -> %s)", id, old, want[i])
		}
	}
}

// closeAt best-effort closes a session at a named backend (drain path: the
// result is discarded — the journal already covers the history).
func (r *Router) closeAt(name, id string) {
	b := r.backends[name]
	c, err := r.checkout(b)
	if err != nil {
		return
	}
	c.CloseSession(id)
	r.checkin(b, c)
}

// alive snapshots backend health.
func (r *Router) alive() map[string]bool {
	alive := make(map[string]bool, len(r.order))
	for _, b := range r.order {
		alive[b.name] = b.isHealthy()
	}
	return alive
}

// place picks a backend for a session: the ring key is the tenant alone, so
// a tenant's sessions share a backend (its shared model tiers see the whole
// tenant) until the load bound fills it — then CHWBL spills the excess
// clockwise instead of letting a hot tenant sink the shard. Loads are live
// per-backend session counts.
func (r *Router) place(tenant string) (*backend, error) {
	alive := r.alive()
	r.mu.Lock()
	loads := make(map[string]int, len(r.backends))
	total := 0
	for _, s := range r.sessions {
		if o := s.getOwner(); o != "" {
			loads[o]++
			total++
		}
	}
	r.mu.Unlock()
	name, ok := r.ring.Pick(tenant, alive, loads, total)
	if !ok {
		return nil, errNoBackends
	}
	return r.backends[name], nil
}

// OpenSession creates a routed session and opens it at its placed backend.
func (r *Router) OpenSession(id string, opt serve.SessionOptions) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return errors.New("route: router closed")
	}
	if _, ok := r.sessions[id]; ok {
		r.mu.Unlock()
		return fmt.Errorf("route: session %q already open", id)
	}
	tenant := opt.Tenant
	if tenant == "" {
		tenant = id
	}
	s := &rsession{id: id, tenant: tenant, opt: opt}
	r.sessions[id] = s
	r.mu.Unlock()

	s.mu.Lock()
	err := r.ensureOpen(s)
	s.mu.Unlock()
	if err != nil {
		r.forget(id)
	}
	return err
}

// ensureOpen makes s live at a backend, called with s.mu held. A detached
// session is placed, opened fresh, and caught up from its journal; openings
// that fail at the transport level eject toward the next placement until no
// backend is healthy.
func (r *Router) ensureOpen(s *rsession) error {
	if s.getOwner() != "" {
		return nil
	}
	for attempt := 0; attempt <= len(r.order); attempt++ {
		b, err := r.place(s.tenant)
		if err != nil {
			return err
		}
		if err := r.openAt(b, s); err != nil {
			var bang *transportError
			if errors.As(err, &bang) {
				r.markFailure(b, bang.cause)
				continue
			}
			return err
		}
		s.setOwner(b.name)
		return nil
	}
	return errNoBackends
}

// sessionGone matches the backend application errors meaning the session's
// live state no longer exists there — orphan reclaim, a restart, or a drain
// close racing an in-flight access. All are cured by a fresh open plus
// journal catch-up. The client decodes both from the wire as the serve
// sentinels themselves.
func sessionGone(err error) bool {
	return errors.Is(err, serve.ErrUnknownSession) || errors.Is(err, serve.ErrSessionClosed)
}

// transportError marks a backend-call failure that should eject/retry rather
// than surface to the session's client.
type transportError struct{ cause error }

func (e *transportError) Error() string { return e.cause.Error() }
func (e *transportError) Unwrap() error { return e.cause }

// openAt opens s fresh at backend b — over b's dedicated opener connection,
// so the session's backend-side lifetime is pinned to the backend, not to
// pool churn — and replays its journal as catch-up batches, discarding the
// results: the client already holds them from the previous owner, and
// deterministic classes reproduce them exactly. A stale copy of the session
// at b (left by an earlier failure the backend noticed later than we did) is
// closed first so the catch-up starts from sequence zero, never
// double-applied.
func (r *Router) openAt(b *backend, s *rsession) error {
	b.openMu.Lock()
	defer b.openMu.Unlock()
	c := b.opener
	if c != nil && c.Broken() != nil {
		c.Close()
		c = nil
	}
	if c == nil {
		var err error
		if c, err = serve.Connect(b.addr, serve.WithTimeout(r.cfg.Timeout)); err != nil {
			return &transportError{cause: err}
		}
		b.opener = c
	}
	bail := func(err error) error {
		if c.Broken() != nil {
			c.Close()
			b.opener = nil
			return &transportError{cause: err}
		}
		return err
	}
	c.CloseSession(s.id) // best-effort stale cleanup; "unknown session" is the happy path
	if c.Broken() != nil {
		return bail(c.Broken())
	}
	if err := c.OpenSession(s.id, s.opt); err != nil {
		return bail(err)
	}
	const catchup = 256
	for lo := 0; lo < len(s.journal); lo += catchup {
		hi := lo + catchup
		if hi > len(s.journal) {
			hi = len(s.journal)
		}
		if _, err := c.AccessBatch(s.id, s.journal[lo:hi]); err != nil {
			if c.Broken() != nil {
				return bail(err)
			}
			return fmt.Errorf("route: catch-up replay failed at %s: %w", b.name, err)
		}
	}
	if len(s.journal) > 0 {
		r.logf("route: session %s caught up at %s (%d records)", s.id, b.name, len(s.journal))
	}
	return nil
}

// session returns the routed session named id, or the error a daemon gives
// for an id it does not know, so clients classify both alike.
func (r *Router) session(id string) (*rsession, error) {
	r.mu.Lock()
	s := r.sessions[id]
	r.mu.Unlock()
	if s == nil {
		return nil, serve.ErrUnknownSession
	}
	return s, nil
}

// call runs fn on a pooled connection to s's backend, making s live there
// first; the caller holds s.mu. It is the one retry loop of the session
// verbs. A transport failure ejects toward the next placement: the call may
// be half-applied at the dead backend, so it is never blind-retried there —
// the reopen's journal catch-up rebuilds the exact pre-call state before fn
// runs again. A backend that no longer has the session (orphan reclaim after
// the opener connection died, a restart, or a racing drain close) gets one
// reopen plus catch-up. Any other error from fn is the caller's.
func (r *Router) call(s *rsession, fn func(c *serve.Client) error) error {
	reopened := false
	for attempt := 0; attempt <= 2*len(r.order)+2; attempt++ {
		if err := r.ensureOpen(s); err != nil {
			return err
		}
		owner := s.getOwner()
		if owner == "" {
			continue // detached by a concurrent ejection; re-place
		}
		b := r.backends[owner]
		c, err := r.checkout(b)
		if err != nil {
			r.markFailure(b, err)
			s.clearOwnerIf(owner)
			continue
		}
		err = fn(c)
		broken := err != nil && c.Broken() != nil
		r.checkin(b, c) // closes a broken connection instead of pooling it
		switch {
		case err == nil:
			return nil
		case broken:
			r.markFailure(b, err)
			s.clearOwnerIf(owner)
		case !reopened && sessionGone(err):
			reopened = true
			s.clearOwnerIf(owner)
		default:
			return err
		}
	}
	return errNoBackends
}

// Access routes one batch of records for a session, migrating it on backend
// failure. The returned results alias session-owned buffers valid until the
// session's next access (the same contract as serve.Client.AccessBatch).
func (r *Router) Access(id string, recs []trace.Record) ([]serve.AccessResult, error) {
	s, err := r.session(id)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []serve.AccessResult
	err = r.call(s, func(c *serve.Client) error {
		res, err := c.AccessBatch(s.id, recs)
		if err == nil {
			// Copy out before the client goes back to the pool.
			out = s.copyResults(res)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	s.journal = append(s.journal, recs...)
	return out, nil
}

// Submit routes one access of a client's JSON connection and calls fn
// (which may be nil) with its response before returning, so the connection
// loop finishes it before it reads the next request.
func (r *Router) Submit(id string, rec trace.Record, fn func(serve.Response)) error {
	res, err := r.Access(id, []trace.Record{rec})
	if err != nil {
		return err
	}
	if fn != nil {
		fn(serve.Response{Session: id, AccessResult: res[0]})
	}
	return nil
}

// SubmitFrame routes one access or batch frame of a client's binary
// connection and hands the job, reply encoded, to the connection's writer
// before returning, so the loop finishes it before it decodes the next
// frame.
func (r *Router) SubmitFrame(sid []byte, j *serve.WireJob) error {
	res, err := r.Access(string(sid), j.Records())
	if err != nil {
		return err
	}
	j.Finish(res)
	return nil
}

// copyResults copies results out of a pooled client's reused buffers into
// the session's own (the client goes back in the pool before the caller is
// done with the results).
func (s *rsession) copyResults(res []serve.AccessResult) []serve.AccessResult {
	s.res = s.res[:0]
	s.pf = s.pf[:0]
	for _, ar := range res {
		start := len(s.pf)
		s.pf = append(s.pf, ar.Prefetches...)
		ar.Prefetches = s.pf[start:len(s.pf):len(s.pf)]
		s.res = append(s.res, ar)
	}
	return s.res
}

// CloseSession closes a routed session and returns its final simulator
// result. A detached session is first made live again (journal catch-up), so
// the result always accounts the session's full history — even when its
// backend died a moment ago.
func (r *Router) CloseSession(id string) (sim.Result, error) {
	s, err := r.session(id)
	if err != nil {
		return sim.Result{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var res sim.Result
	err = r.call(s, func(c *serve.Client) (err error) {
		res, err = c.CloseSession(s.id)
		return err
	})
	if err != nil {
		return sim.Result{}, err
	}
	r.forget(id)
	return res, nil
}

// forget removes a session from the routing table (journal and all).
func (r *Router) forget(id string) {
	r.mu.Lock()
	delete(r.sessions, id)
	r.mu.Unlock()
}

// Sessions returns the ids of the router's open sessions (sorted).
func (r *Router) Sessions() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Sorted(maps.Keys(r.sessions))
}

// prober health-checks every backend on the configured cadence. An ejected
// backend backs off exponentially (capped at 16 intervals) so a dead shard
// is not hammered, and a probe success readmits it (triggering a rebalance).
func (r *Router) prober() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
		}
		for _, b := range r.order {
			b.mu.Lock()
			skip := !b.healthy && time.Now().Before(b.skipTo)
			b.mu.Unlock()
			if skip {
				continue
			}
			if err := r.probe(b); err != nil {
				b.mu.Lock()
				wasHealthy := b.healthy
				over := b.fails + 1 - r.cfg.HealthFails // consecutive failures past ejection
				b.mu.Unlock()
				r.markFailure(b, err)
				if !wasHealthy {
					backoff := r.cfg.HealthInterval << min(uint(over), 4)
					b.mu.Lock()
					b.skipTo = time.Now().Add(backoff)
					b.mu.Unlock()
				}
			} else {
				r.markSuccess(b)
			}
		}
	}
}

// probe asks one backend for stats over a pooled connection.
func (r *Router) probe(b *backend) error {
	c, err := r.checkout(b)
	if err != nil {
		return err
	}
	_, err = c.Do(serve.Request{Op: "stats"})
	r.checkin(b, c)
	return err
}
