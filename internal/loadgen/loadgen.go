// Package loadgen is the load generator for the serving tier. It drives
// sessions through an in-process serve.Engine or a dialled daemon or router,
// checks that every access comes back once and in order, and re-runs the
// deterministic sessions through the offline simulator to prove the served
// results bit-identical to sim.Run. dart-serve's and dart-router's -replay
// and -matrix modes are flag parsing around one call to Soak.
package loadgen

import (
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"dart/internal/metrics"
	"dart/internal/prefetch"
	"dart/internal/serve"
	"dart/internal/sim"
	"dart/internal/trace"
)

// Spec is one load-generation setup: a target, a transport, the offline
// check, and the load each Soak round drives.
type Spec struct {
	// Engine is an in-process target, Addr a dialled one (a dart-serve
	// daemon or a dart-router front end). Exactly one must be set.
	Engine *serve.Engine
	Addr   string

	// Proto selects the transport. "" or "direct" calls Engine in-process,
	// one access per call. "json" and "binary" send frames of Batch
	// accesses (default 64) over that wire protocol — to Addr, or to a
	// loopback server around Engine — so a run crosses the full
	// decode→serve→encode path.
	Proto string
	Batch int

	// Verify re-runs every checkable session through sim.Run and requires
	// bit-identity (see offline for which classes are checkable). Engine
	// targets re-run with the engine's own registry and machine model; Addr
	// targets with the built-in prefetchers and VerifySimCfg (default
	// sim.DefaultConfig), which must match the backend's.
	Verify       bool
	VerifySimCfg *sim.Config

	// Load builds round r's sessions for Soak: Matrix or Apps.
	Load func(round int) ([]Session, error)
	// Log receives Soak's per-round reports; nil discards them.
	Log io.Writer
}

// Session is one stream the runner drives: opened with Opts, then fed Recs
// in order with one frame in flight, paced to QPS accesses/sec (0 means
// unthrottled). Sessions group into report rows by Opts.Tenant.
type Session struct {
	ID       string
	Workload string // generator name, for the report
	Opts     serve.SessionOptions
	Recs     []trace.Record
	QPS      float64
}

// SessionReport is one session's outcome.
type SessionReport struct {
	ID        string
	Tenant    string
	Result    sim.Result
	Offline   sim.Result // zero unless verified
	Submitted int
	Complete  bool // the result accounts every submitted access
	Verified  bool // Verify: bit-identical to the offline re-run
	Unchecked bool // Verify: the class cannot be re-run offline
}

// TenantReport folds the sessions that share one Opts.Tenant.
type TenantReport struct {
	Tenant    string
	Workload  string
	Class     string
	Sessions  int
	Merged    sim.Result
	Latency   metrics.Summary
	Complete  bool
	Verified  bool
	Unchecked bool
	Admission serve.TenantAdmission // fair-share view (Engine targets)
}

// Report summarises one run. It is also the "report" of the -json file.
type Report struct {
	Tenants     []TenantReport
	Sessions    []SessionReport
	Merged      sim.Result
	Latency     metrics.Summary // per access on direct, per frame on a wire
	WallSeconds float64
	Throughput  float64      // accesses/sec actually sustained
	Complete    bool         // every session complete
	Verified    bool         // Verify: every checkable session bit-identical
	Engine      *serve.Stats `json:",omitempty"` // engine counters after the run (Engine targets)
}

// normalized applies defaults and validates the target/transport pair.
func (s Spec) normalized() (Spec, error) {
	switch s.Proto {
	case "", "direct":
		s.Proto, s.Batch = "direct", 1 // one access per latency sample
		if s.Addr != "" {
			return s, fmt.Errorf("loadgen: target %q needs a wire protocol, not %q", s.Addr, s.Proto)
		}
	case "json", "binary":
		if s.Batch <= 0 {
			s.Batch = 64
		}
	default:
		return s, fmt.Errorf("loadgen: unknown protocol %q (have direct, json, binary)", s.Proto)
	}
	if (s.Engine == nil) == (s.Addr == "") {
		return s, fmt.Errorf("loadgen: spec needs exactly one target, an Engine or an Addr")
	}
	return s, nil
}

// offline re-runs one session through sim.Run. ok is false when the class is
// not checkable: a learner row serves it (versioned classes hot-swap under
// training by design) or the offline registry cannot build it (a class only
// the remote end knows).
func (s Spec) offline(sess Session) (res sim.Result, ok bool) {
	reg, cfg := prefetch.NewRegistry(), sim.DefaultConfig()
	if s.VerifySimCfg != nil {
		cfg = *s.VerifySimCfg
	}
	if e := s.Engine; e != nil {
		if l := e.Learner(); l != nil {
			for _, c := range l.Classes() {
				if c.Prefetcher() == sess.Opts.Prefetcher {
					return sim.Result{}, false
				}
			}
		}
		reg, cfg = e.Config().Registry, e.Config().SimCfg
	}
	if sess.Opts.SimCfg != nil {
		cfg = *sess.Opts.SimCfg
	}
	pf, err := reg.New(sess.Opts.Prefetcher, sess.Opts.Degree)
	if err != nil {
		return sim.Result{}, false
	}
	return sim.Run(sess.Recs, pf, cfg), true
}

// target is one session's path to the server: the engine itself on the
// direct transport, the session's own connection on a wire.
type target interface {
	open(id string, opt serve.SessionOptions) error
	access(id string, frame []trace.Record, seqs []uint64) error
	close(id string) (sim.Result, error)
}

type engineTarget struct{ e *serve.Engine }

func (t engineTarget) open(id string, opt serve.SessionOptions) error {
	return t.e.OpenSession(id, opt)
}

func (t engineTarget) access(id string, frame []trace.Record, seqs []uint64) error {
	for i, rec := range frame {
		resp, err := t.e.Access(id, rec)
		if err != nil {
			return err
		}
		seqs[i] = resp.Seq
	}
	return nil
}

func (t engineTarget) close(id string) (sim.Result, error) { return t.e.Close(id) }

// wireTarget is one session's dialled client; its embedded Close hangs up.
type wireTarget struct{ *serve.Client }

func (t wireTarget) open(id string, opt serve.SessionOptions) error {
	return t.OpenSession(id, opt)
}

func (t wireTarget) access(id string, frame []trace.Record, seqs []uint64) error {
	res, err := t.AccessBatch(id, frame)
	if err != nil {
		return err
	}
	for i, r := range res {
		seqs[i] = r.Seq
	}
	return nil
}

func (t wireTarget) close(id string) (sim.Result, error) { return t.CloseSession(id) }

// run is one session in flight.
type run struct {
	Session
	t      target
	open   bool
	hist   metrics.Histogram
	result sim.Result
	err    error
}

// pump is the one load loop: frames of batch accesses with one in flight,
// paced at 1/QPS per access, and every reply's sequence numbers checked to
// be exactly the next ones — nothing dropped, nothing reordered.
func (r *run) pump(batch int) {
	var interval time.Duration
	if r.QPS > 0 {
		interval = time.Duration(float64(time.Second) / r.QPS)
	}
	seqs := make([]uint64, batch)
	want := uint64(1)
	next := time.Now()
	for lo := 0; lo < len(r.Recs); lo += batch {
		frame := r.Recs[lo:min(lo+batch, len(r.Recs))]
		if interval > 0 {
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			next = next.Add(interval * time.Duration(len(frame)))
		}
		t0 := time.Now()
		if err := r.t.access(r.ID, frame, seqs); err != nil {
			r.err = fmt.Errorf("loadgen: session %s: %w", r.ID, err)
			return
		}
		r.hist.ObserveDuration(time.Since(t0))
		for _, seq := range seqs[:len(frame)] {
			if seq != want {
				r.err = fmt.Errorf("loadgen: session %s: access %d served as seq %d", r.ID, want, seq)
				return
			}
			want++
		}
	}
}

// Run drives sessions through the spec's target concurrently — each one in
// order and synchronously, so batching pressure comes from cross-session
// concurrency exactly as in live serving — then closes them, folding their
// final results (fetched over the wire's close verb on wire transports) and
// the optional offline check into a Report. Every session it opened is
// closed again on every exit path.
func Run(spec Spec, sessions []Session) (Report, error) {
	spec, err := spec.normalized()
	if err != nil {
		return Report{}, err
	}
	addr := spec.Addr
	if spec.Proto != "direct" && spec.Engine != nil {
		srv := serve.NewServer(spec.Engine)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return Report{}, err
		}
		go srv.Serve(ln)
		defer srv.Stop() // after the cleanup below: reclaims a dead conn's sessions
		addr = ln.Addr().String()
	}

	runs := make([]*run, 0, len(sessions))
	defer func() {
		for _, r := range runs {
			if r.open {
				r.t.close(r.ID) // best effort
			}
			if c, ok := r.t.(io.Closer); ok {
				c.Close()
			}
		}
	}()
	for _, sess := range sessions {
		r := &run{Session: sess, t: engineTarget{spec.Engine}}
		if spec.Proto != "direct" {
			c, err := serve.Connect(addr, serve.WithProtocol(spec.Proto))
			if err != nil {
				return Report{}, err
			}
			r.t = wireTarget{c}
		}
		runs = append(runs, r) // before open, so the cleanup hangs up
		if err := r.t.open(sess.ID, sess.Opts); err != nil {
			return Report{}, fmt.Errorf("loadgen: session %s: %w", sess.ID, err)
		}
		r.open = true
	}

	var wg sync.WaitGroup
	start := time.Now()
	for _, r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.pump(spec.Batch)
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	for _, r := range runs {
		if r.err != nil {
			return Report{}, r.err
		}
	}
	for _, r := range runs {
		r.result, err = r.t.close(r.ID)
		r.open = false // even a failed close means this run no longer owns it
		if err != nil {
			return Report{}, fmt.Errorf("loadgen: session %s: %w", r.ID, err)
		}
	}
	return spec.report(runs, wall), nil
}

// report folds closed runs into per-session rows, per-tenant rows (in order
// of first appearance), and the run-wide totals.
func (s Spec) report(runs []*run, wall time.Duration) Report {
	rep := Report{WallSeconds: wall.Seconds(), Complete: true, Verified: s.Verify}
	if e := s.Engine; e != nil {
		st := e.StatsSnapshot()
		rep.Engine = &st
	}
	type tenant struct {
		row     TenantReport
		results []sim.Result
		hist    metrics.Histogram
	}
	var tenants []*tenant
	byName := map[string]*tenant{}
	var all metrics.Histogram
	var results []sim.Result
	for _, r := range runs {
		sr := SessionReport{ID: r.ID, Tenant: r.Opts.Tenant, Result: r.result,
			Submitted: len(r.Recs), Complete: r.result.Accesses == len(r.Recs)}
		if s.Verify {
			off, ok := s.offline(r.Session)
			sr.Offline, sr.Verified, sr.Unchecked = off, ok && off == r.result, !ok
		}
		t := byName[sr.Tenant]
		if t == nil {
			t = &tenant{row: TenantReport{Tenant: sr.Tenant, Workload: r.Workload,
				Class: r.Opts.Prefetcher, Complete: true, Verified: s.Verify}}
			if rep.Engine != nil {
				t.row.Admission = rep.Engine.Tenants[sr.Tenant]
			}
			byName[sr.Tenant] = t
			tenants = append(tenants, t)
		}
		t.row.Sessions++
		t.row.Complete = t.row.Complete && sr.Complete
		t.row.Verified = t.row.Verified && sr.Verified
		t.row.Unchecked = t.row.Unchecked || sr.Unchecked
		t.results = append(t.results, r.result)
		t.hist.Merge(&r.hist)
		all.Merge(&r.hist)
		results = append(results, r.result)
		rep.Sessions = append(rep.Sessions, sr)
		rep.Complete = rep.Complete && sr.Complete
		rep.Verified = rep.Verified && (sr.Verified || sr.Unchecked)
	}
	for _, t := range tenants {
		t.row.Merged = sim.Merge(t.results)
		t.row.Merged.Prefetcher = t.row.Class
		t.row.Latency = t.hist.Summarize()
		rep.Tenants = append(rep.Tenants, t.row)
	}
	rep.Merged = sim.Merge(results)
	rep.Latency = all.Summarize()
	if wall > 0 {
		rep.Throughput = float64(rep.Merged.Accesses) / wall.Seconds()
	}
	return rep
}

// String renders a report for the CLI logs.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "load: %d sessions, %d accesses in %.2fs (%.0f acc/s), complete=%v\n",
		len(r.Sessions), r.Merged.Accesses, r.WallSeconds, r.Throughput, r.Complete)
	fmt.Fprintf(&b, "request latency: %s\n", r.Latency)
	if st := r.Engine; st != nil && st.Batched > 0 {
		fmt.Fprintf(&b, "model batches: %d serving %d queries (avg %.1f, max %d per batch)\n",
			st.Batches, st.Batched, float64(st.Batched)/float64(st.Batches), st.MaxBatch)
	}
	if st := r.Engine; st != nil && st.AB != nil && st.AB.Labels > 0 {
		fmt.Fprintf(&b, "student A/B: %.1f%% label agreement with teacher over %d batches (%d labels)\n",
			st.AB.Rate*100, st.AB.Batches, st.AB.Labels)
	}
	for _, t := range r.Tenants {
		if t.Tenant == "" {
			continue // unnamed sessions: their rows below say it all
		}
		fmt.Fprintf(&b, "  %-10s %-8s class=%-8s sess=%d  IPC %.3f  acc %5.1f%%  misses %d  l2hits %d  complete=%v%s\n",
			t.Tenant, t.Workload, t.Class, t.Sessions, t.Merged.IPC, t.Merged.Accuracy()*100,
			t.Merged.DemandMisses, t.Merged.L2Hits, t.Complete, mark(t.Verified, t.Unchecked))
		if a := t.Admission; a.Queries > 0 {
			fmt.Fprintf(&b, "             admission: weight %d, %d queries, starved %d batches, max wait %d batches\n",
				a.Weight, a.Queries, a.Starved, a.MaxWaitBatches)
		}
		fmt.Fprintf(&b, "             latency: %s\n", t.Latency)
	}
	for _, s := range r.Sessions {
		fmt.Fprintf(&b, "  %-12s IPC %.3f  acc %5.1f%%  misses %d  issued %d%s\n",
			s.ID, s.Result.IPC, s.Result.Accuracy()*100, s.Result.DemandMisses,
			s.Result.PrefetchIssued, mark(s.Verified, s.Unchecked))
	}
	return b.String()
}

func mark(verified, unchecked bool) string {
	switch {
	case verified:
		return "  [= offline]"
	case unchecked:
		return "  [unchecked]"
	}
	return ""
}
