package serve

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"dart/internal/metrics"
	"dart/internal/prefetch"
	"dart/internal/sim"
	"dart/internal/trace"
)

// ReplaySpec is the one replay surface: every evaluation mode — dart-serve's
// replay and matrix flags, dart-router's routed runs, the in-package tests —
// maps onto this struct and hands it to Replay or ReplayMatrix.
//
// The target is either an in-process Engine or a dialed address (a dart-serve
// daemon or a dart-router front-end), never both. Direct (in-process) replay
// requires an Engine; an Addr target requires a wire Proto, and engine-side
// extras the wire cannot carry — batcher counters, A/B stats, fair-share
// admission views — stay zero in the report.
type ReplaySpec struct {
	Engine *Engine // in-process target (Proto "direct" or loopback wire)
	Addr   string  // remote target: host:port of a daemon or router

	// Proto selects the transport. "" or "direct" calls the engine
	// in-process; "json" and "binary" replay over that wire protocol —
	// against Addr when set, else a loopback TCP server wrapping Engine —
	// so the measured throughput includes the full
	// read→decode→infer→encode→write path. With a wire transport the
	// latency histogram observes per-frame round trips (Batch accesses
	// each) rather than single accesses.
	Proto   string
	Batch   int           // accesses per wire frame / pipelined burst (default 64)
	Timeout time.Duration // per-call client deadline on wire transports; 0 = none

	Prefetcher string  // prefetcher every session opens with (Replay; default "stride")
	Degree     int     // prefetch degree (default 4)
	QPS        float64 // aggregate target accesses/sec across sessions; 0 = unthrottled
	Verify     bool    // re-run each trace offline and require bit-identity

	// Tenants is the mixed-tenant scenario matrix consumed by ReplayMatrix
	// (Replay ignores it); per-tenant class, degree, QPS, weight, and
	// machine model live on each TenantSpec.
	Tenants []TenantSpec

	// VerifyRegistry and VerifySimCfg configure the offline rerun used by
	// Verify when the target is an Addr (the remote engine's internals are
	// unreachable): they must match the backend's configuration. Defaults:
	// the built-in prefetcher registry and sim.DefaultConfig. Engine
	// targets always verify with the engine's own registry and model.
	VerifyRegistry *prefetch.Registry
	VerifySimCfg   *sim.Config
}

// normalized applies defaults and validates the target/transport combination.
func (s ReplaySpec) normalized() (ReplaySpec, error) {
	if s.Prefetcher == "" {
		s.Prefetcher = "stride"
	}
	if s.Degree <= 0 {
		s.Degree = 4
	}
	if s.Batch <= 0 {
		s.Batch = 64
	}
	switch s.Proto {
	case "", "direct":
		s.Proto = "direct"
		if s.Addr != "" {
			return s, fmt.Errorf("serve: replay target %q needs a wire protocol, not %q", s.Addr, s.Proto)
		}
	case "json", "binary":
	default:
		return s, fmt.Errorf("serve: unknown replay protocol %q (have direct, json, binary)", s.Proto)
	}
	if s.Engine == nil && s.Addr == "" {
		return s, fmt.Errorf("serve: replay spec needs a target: an Engine or a dialed Addr")
	}
	if s.Engine != nil && s.Addr != "" {
		return s, fmt.Errorf("serve: replay spec has two targets (Engine and Addr %q); pick one", s.Addr)
	}
	if s.VerifyRegistry == nil {
		s.VerifyRegistry = prefetch.NewRegistry()
	}
	return s, nil
}

// offline reruns one trace through the offline simulator for the bit-identity
// check, resolving the registry and machine model from the engine when the
// target is in-process and from the spec's Verify fields otherwise.
func (s ReplaySpec) offline(name string, degree int, simCfg *sim.Config, recs []trace.Record) (sim.Result, error) {
	reg, cfg := s.VerifyRegistry, sim.DefaultConfig()
	if s.VerifySimCfg != nil {
		cfg = *s.VerifySimCfg
	}
	if s.Engine != nil {
		reg, cfg = s.Engine.cfg.Registry, s.Engine.cfg.SimCfg
	}
	if simCfg != nil {
		cfg = *simCfg
	}
	pf, err := reg.New(name, degree)
	if err != nil {
		return sim.Result{}, err
	}
	return sim.Run(recs, pf, cfg), nil
}

// dial opens one replay client against the spec's wire target.
func (s ReplaySpec) dial(addr string) (*Client, error) {
	return Connect(addr, WithProtocol(s.Proto), WithBatchSize(s.Batch), WithTimeout(s.Timeout))
}

// SessionReport is one session's replay outcome.
type SessionReport struct {
	ID        string
	Result    sim.Result
	Offline   sim.Result // zero unless verified
	Identical bool       // served == offline (only meaningful with Verify)
}

// Report summarises a replay.
type Report struct {
	Sessions    []SessionReport
	Merged      sim.Result
	Latency     metrics.Summary // per-request latency (seconds); per-frame on wire transports
	WallSeconds float64
	Throughput  float64 // accesses/sec actually sustained
	Verified    bool    // every session bit-identical (false when Verify off)
	Batches     uint64  // model batches dispatched during the run (engine targets)
	Batched     uint64  // model queries served through them
	MaxBatch    int
	AB          *ABStats                   // student-vs-teacher agreement (shadow-compare runs only)
	Tenants     map[string]TenantAdmission // fair-share admission view (model-class runs)
}

// Replay pumps one trace per session through the spec's target concurrently —
// the continuous-request-load evaluation mode — and reports per-session
// results, sustained throughput, and request-latency percentiles. Each
// session's accesses are submitted in order and synchronously (access n+1
// enters the engine after n's reply; on wire transports, frame n+1 after
// frame n's reply), so batching pressure comes from cross-session concurrency
// exactly as in live serving. With Verify set, every trace is re-run through
// the offline simulator and the served results must match bit-for-bit —
// including results that travelled over a wire protocol, through a loopback
// server or a remote daemon or router at spec.Addr.
func Replay(spec ReplaySpec, traces map[string][]trace.Record) (Report, error) {
	spec, err := spec.normalized()
	if err != nil {
		return Report{}, err
	}
	ids := make([]string, 0, len(traces))
	total := 0
	for id, recs := range traces {
		ids = append(ids, id)
		total += len(recs)
	}
	sort.Strings(ids)
	if spec.Proto == "direct" {
		return replayDirect(spec, traces, ids, total)
	}
	return replayWire(spec, traces, ids, total)
}

// pacing returns the per-access submit interval for the aggregate QPS target.
func pacing(qps float64, sessions int) time.Duration {
	if qps <= 0 || sessions == 0 {
		return 0
	}
	perSession := qps / float64(sessions)
	return time.Duration(float64(time.Second) / perSession)
}

// replayDirect drives the engine with in-process calls.
func replayDirect(spec ReplaySpec, traces map[string][]trace.Record, ids []string, total int) (Report, error) {
	e := spec.Engine
	// Track which sessions this replay has opened and not yet closed, and
	// close the leftovers on every exit path: any early error return (a
	// mid-loop Open conflict, an Access failure, a Close failure) used to
	// leak the remaining open sessions — their actors, inboxes, and learner
	// taps — into the engine forever.
	open := make(map[string]bool, len(ids))
	defer func() {
		for id := range open {
			e.Close(id) // best effort; the engine logs nothing for replays
		}
	}()
	for _, id := range ids {
		if err := e.Open(id, spec.Prefetcher, spec.Degree); err != nil {
			return Report{}, err
		}
		open[id] = true
	}

	interval := pacing(spec.QPS, len(ids))
	hists := make([]*metrics.Histogram, len(ids))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	start := time.Now()
	for i, id := range ids {
		hists[i] = &metrics.Histogram{}
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			next := time.Now()
			for _, rec := range traces[id] {
				if interval > 0 {
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
					next = next.Add(interval)
				}
				t0 := time.Now()
				if _, err := e.Access(id, rec); err != nil {
					errs[i] = err
					return
				}
				hists[i].ObserveDuration(time.Since(t0))
			}
		}(i, id)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return Report{}, err
		}
	}

	results := make(map[string]sim.Result, len(ids))
	for _, id := range ids {
		res, err := e.Close(id)
		delete(open, id) // even a failed Close means this replay no longer owns it
		if err != nil {
			return Report{}, err
		}
		results[id] = res
	}
	return finishReport(spec, traces, ids, results, hists, wall, total)
}

// replayWire replays over a wire protocol: one connection per session, each
// pumping its trace in Batch-sized frames (binary) or pipelined access bursts
// (json). With an Addr target the sessions dial the remote daemon or router;
// with an Engine target they dial a loopback TCP server wrapping it. Session
// results come back over the wire via the close verb, so Verify proves
// bit-identity end to end through the chosen protocol's codec — and, when the
// target is a router, through its sharding and migration machinery.
func replayWire(spec ReplaySpec, traces map[string][]trace.Record, ids []string, total int) (Report, error) {
	e := spec.Engine
	addr := spec.Addr
	if e != nil {
		srv := NewServer(e)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return Report{}, err
		}
		go srv.Serve(ln)
		defer srv.Stop()
		addr = ln.Addr().String()
	}

	open := make(map[string]bool, len(ids))
	clients := make(map[string]*Client, len(ids))
	defer func() {
		// Reclaim sessions on early error exits: engine targets close
		// in-process (robust even when the session's own conn died); remote
		// targets get a best-effort close over the session's client.
		for id := range open {
			if e != nil {
				e.Close(id)
			} else if c := clients[id]; c != nil {
				c.CloseSession(id)
			}
		}
		for _, c := range clients {
			c.Close()
		}
	}()
	for _, id := range ids {
		c, err := spec.dial(addr)
		if err != nil {
			return Report{}, err
		}
		clients[id] = c
		if err := c.Open(id, spec.Prefetcher, spec.Degree); err != nil {
			return Report{}, err
		}
		open[id] = true
	}

	batch := spec.Batch
	interval := pacing(spec.QPS, len(ids))
	hists := make([]*metrics.Histogram, len(ids))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	start := time.Now()
	for i, id := range ids {
		hists[i] = &metrics.Histogram{}
		wg.Add(1)
		go func(i int, id string, c *Client) {
			defer wg.Done()
			recs := traces[id]
			next := time.Now()
			for lo := 0; lo < len(recs); lo += batch {
				hi := lo + batch
				if hi > len(recs) {
					hi = len(recs)
				}
				if interval > 0 {
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
					next = next.Add(interval * time.Duration(hi-lo))
				}
				t0 := time.Now()
				if _, err := c.AccessBatch(id, recs[lo:hi]); err != nil {
					errs[i] = err
					return
				}
				hists[i].ObserveDuration(time.Since(t0))
			}
		}(i, id, clients[id])
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return Report{}, err
		}
	}

	results := make(map[string]sim.Result, len(ids))
	for _, id := range ids {
		res, err := clients[id].CloseSession(id)
		delete(open, id)
		if err != nil {
			return Report{}, err
		}
		results[id] = res
	}
	return finishReport(spec, traces, ids, results, hists, wall, total)
}

// finishReport folds per-session results, the optional offline verification,
// latency percentiles, and (for engine targets) batcher counters into a
// Report.
func finishReport(spec ReplaySpec, traces map[string][]trace.Record,
	ids []string, results map[string]sim.Result, hists []*metrics.Histogram,
	wall time.Duration, total int) (Report, error) {

	rep := Report{WallSeconds: wall.Seconds()}
	if wall > 0 {
		rep.Throughput = float64(total) / wall.Seconds()
	}
	var lat metrics.Histogram
	for _, h := range hists {
		lat.Merge(h)
	}
	rep.Latency = lat.Summarize()

	merged := make([]sim.Result, 0, len(ids))
	for _, id := range ids {
		res := results[id]
		sr := SessionReport{ID: id, Result: res}
		if spec.Verify {
			off, err := spec.offline(spec.Prefetcher, spec.Degree, nil, traces[id])
			if err != nil {
				return Report{}, err
			}
			sr.Offline = off
			sr.Identical = sr.Offline == sr.Result
		}
		rep.Sessions = append(rep.Sessions, sr)
		merged = append(merged, res)
	}
	rep.Merged = sim.Merge(merged)
	if spec.Verify {
		rep.Verified = true
		for _, sr := range rep.Sessions {
			if !sr.Identical {
				rep.Verified = false
			}
		}
	}
	if e := spec.Engine; e != nil {
		rep.Batches, rep.Batched, rep.MaxBatch = e.batchStats()
		rep.AB = e.abStats()
		if t := e.TenantAdmissions(); len(t) > 0 {
			rep.Tenants = t
		}
	}
	return rep, nil
}

// String renders a replay report for the CLI.
func (r Report) String() string {
	s := fmt.Sprintf("replayed %d sessions, %d accesses in %.2fs (%.0f acc/s)\n",
		len(r.Sessions), r.Merged.Accesses, r.WallSeconds, r.Throughput)
	s += fmt.Sprintf("request latency: %s\n", r.Latency)
	if r.Batched > 0 {
		avg := float64(r.Batched) / float64(r.Batches)
		s += fmt.Sprintf("model batches: %d serving %d queries (avg %.1f, max %d per batch)\n",
			r.Batches, r.Batched, avg, r.MaxBatch)
	}
	if r.AB != nil && r.AB.Labels > 0 {
		s += fmt.Sprintf("student A/B: %.1f%% label agreement with teacher over %d batches (%d labels)\n",
			r.AB.Rate*100, r.AB.Batches, r.AB.Labels)
	}
	for _, sr := range r.Sessions {
		mark := ""
		if sr.Identical {
			mark = "  [= offline]"
		}
		s += fmt.Sprintf("  %-12s IPC %.3f  acc %5.1f%%  misses %d  issued %d%s\n",
			sr.ID, sr.Result.IPC, sr.Result.Accuracy()*100,
			sr.Result.DemandMisses, sr.Result.PrefetchIssued, mark)
	}
	return s
}
