package serve

import (
	"fmt"
	"net"
	"sync"
	"time"

	"dart/internal/metrics"
	"dart/internal/sim"
	"dart/internal/trace"
)

// TenantSpec is one row of a scenario matrix: a named tenant driving some
// number of concurrent sessions of one workload-zoo scenario through one
// serving class, under its own QPS budget, fair-share weight, and (optionally)
// its own cache-hierarchy configuration.
type TenantSpec struct {
	Name     string
	Workload string      // trace.WorkloadByName key (zoo scenario or app)
	Sessions int         // concurrent sessions (default 1)
	N        int         // accesses per session (default 1000)
	Class    string      // serving class / prefetcher name (default "stride")
	Degree   int         // prefetch degree (default 4)
	QPS      float64     // aggregate accesses/sec across the tenant's sessions; 0 = unthrottled
	Weight   int         // fair-share admission weight (default 1)
	SimCfg   *sim.Config // per-tenant machine model; nil = engine default
	Seed     int64       // perturbs the workload seed; session i uses Seed+i
}

func (t TenantSpec) withDefaults() TenantSpec {
	if t.Sessions <= 0 {
		t.Sessions = 1
	}
	if t.N <= 0 {
		t.N = 1000
	}
	if t.Class == "" {
		t.Class = "stride"
	}
	if t.Degree <= 0 {
		t.Degree = 4
	}
	if t.Weight <= 0 {
		t.Weight = 1
	}
	return t
}

// TenantReport is one tenant's outcome in a matrix replay.
type TenantReport struct {
	Tenant    string
	Workload  string
	Class     string
	Sessions  int
	Merged    sim.Result      // per-session results merged
	Latency   metrics.Summary // request latency across the tenant's sessions
	Complete  bool            // every access served, in order, none dropped
	Verified  bool            // Verify: every session bit-identical to the offline sim
	Unchecked bool            // Verify requested but the class cannot be offline-verified
	Admission TenantAdmission // fair-share view from the admission batchers (engine targets)
}

// MatrixReport summarises a mixed-tenant scenario replay.
type MatrixReport struct {
	Tenants       []TenantReport
	WallSeconds   float64
	TotalAccesses int
	Throughput    float64
	Complete      bool // conjunction of every tenant's Complete
	Verified      bool // Verify: every checkable tenant bit-identical (versioned classes check completeness instead)
}

// classVerifiable reports whether a serving class can be re-run offline for
// the bit-identity check: versioned classes hot-swap under training by
// design, so only the deterministic classes (the rule-based baselines, and a
// static pretrained dart table on engine targets) are checkable.
func (s ReplaySpec) classVerifiable(class string) bool {
	switch class {
	case "online", "student":
		return false
	}
	if e := s.Engine; e != nil {
		if c := e.classes[class]; c != nil {
			return !c.tapped
		}
	}
	return true
}

// ReplayMatrix drives the spec's mixed-tenant scenario matrix (spec.Tenants)
// through its target: every tenant's sessions run concurrently, each pumping
// its own deterministic workload-zoo trace in order and synchronously (access
// n+1 enters the engine only after n's reply), so cross-tenant interference
// is real — shared admission batchers, shared learner, shared worker pool.
// Per tenant it verifies completeness (each session's reply sequence numbers
// are exactly 1..N and the merged result accounts every access — nothing
// dropped, nothing reordered), merges the per-session simulator results, and
// reports request-latency percentiles plus the tenant's fair-share admission
// stats. With a wire transport the same matrix runs over the chosen protocol
// — against spec.Addr (a daemon or a dart-router front-end) when set, else a
// loopback server around spec.Engine — including completeness checks on the
// sequence numbers each reply frame carries. With spec.Verify, tenants on
// deterministic classes are additionally re-run offline and must match
// bit-for-bit.
func ReplayMatrix(spec ReplaySpec) (MatrixReport, error) {
	spec, err := spec.normalized()
	if err != nil {
		return MatrixReport{}, err
	}
	e := spec.Engine
	wire := spec.Proto != "direct"
	if !wire && e == nil {
		return MatrixReport{}, fmt.Errorf("serve: direct matrix replay needs an engine")
	}
	tenants := spec.Tenants
	if len(tenants) == 0 {
		return MatrixReport{}, fmt.Errorf("serve: empty scenario matrix")
	}
	specs := make([]TenantSpec, len(tenants))
	seen := map[string]bool{}
	for i, t := range tenants {
		specs[i] = t.withDefaults()
		if specs[i].Name == "" {
			return MatrixReport{}, fmt.Errorf("serve: tenant %d has no name", i)
		}
		if seen[specs[i].Name] {
			return MatrixReport{}, fmt.Errorf("serve: duplicate tenant %q", specs[i].Name)
		}
		seen[specs[i].Name] = true
		if _, ok := trace.WorkloadByName(specs[i].Workload); !ok {
			return MatrixReport{}, fmt.Errorf("serve: tenant %q: unknown workload %q",
				specs[i].Name, specs[i].Workload)
		}
	}

	// Wire transports with an engine target run the matrix through a
	// loopback server; an Addr target is dialed as-is (daemon or router).
	addr := spec.Addr
	if wire && e != nil {
		srv := NewServer(e)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return MatrixReport{}, err
		}
		go srv.Serve(ln)
		defer srv.Stop()
		addr = ln.Addr().String()
	}

	type sessionRun struct {
		tenant  int
		id      string
		recs    []trace.Record
		hist    *metrics.Histogram
		client  *Client // nil on the direct transport
		orderOK bool
		result  sim.Result
		err     error
	}
	var runs []*sessionRun
	defer func() {
		for _, r := range runs {
			if r.client != nil {
				r.client.Close()
			}
		}
	}()
	open := make(map[string]bool)
	defer func() {
		// Best-effort reclaim on early error paths: in-process when the
		// engine is ours, over each session's client otherwise.
		for _, r := range runs {
			if !open[r.id] {
				continue
			}
			if e != nil {
				e.Close(r.id)
			} else if r.client != nil {
				r.client.CloseSession(r.id)
			}
		}
	}()
	for ti, t := range specs {
		w, _ := trace.WorkloadByName(t.Workload)
		for si := 0; si < t.Sessions; si++ {
			id := fmt.Sprintf("%s/%d", t.Name, si)
			sopt := SessionOptions{
				Prefetcher: t.Class,
				Degree:     t.Degree,
				Tenant:     t.Name,
				Weight:     t.Weight,
				SimCfg:     t.SimCfg,
			}
			r := &sessionRun{
				tenant:  ti,
				id:      id,
				recs:    w.Generate(t.Seed+int64(si), t.N),
				hist:    &metrics.Histogram{},
				orderOK: true,
			}
			var err error
			if wire {
				if r.client, err = spec.dial(addr); err == nil {
					runs = append(runs, r) // before Open, so the defer closes the conn
					err = r.client.OpenSession(id, sopt)
				}
			} else {
				runs = append(runs, r)
				err = e.OpenSession(id, sopt)
			}
			if err != nil {
				return MatrixReport{}, fmt.Errorf("serve: tenant %q: %w", t.Name, err)
			}
			open[id] = true
		}
	}

	batch := spec.Batch
	var wg sync.WaitGroup
	start := time.Now()
	for _, r := range runs {
		t := specs[r.tenant]
		var interval time.Duration
		if t.QPS > 0 {
			perSession := t.QPS / float64(t.Sessions)
			interval = time.Duration(float64(time.Second) / perSession)
		}
		wg.Add(1)
		go func(r *sessionRun, interval time.Duration) {
			defer wg.Done()
			if r.client != nil {
				// Wire transport: frames of `batch` accesses; each reply
				// frame carries the per-access sequence numbers, so the
				// completeness check is exactly the direct transport's.
				expect := uint64(1)
				next := time.Now()
				for lo := 0; lo < len(r.recs); lo += batch {
					hi := lo + batch
					if hi > len(r.recs) {
						hi = len(r.recs)
					}
					if interval > 0 {
						if d := time.Until(next); d > 0 {
							time.Sleep(d)
						}
						next = next.Add(interval * time.Duration(hi-lo))
					}
					t0 := time.Now()
					res, err := r.client.AccessBatch(r.id, r.recs[lo:hi])
					if err != nil {
						r.err = err
						return
					}
					r.hist.ObserveDuration(time.Since(t0))
					for _, ar := range res {
						if ar.Seq != expect {
							r.orderOK = false
							r.err = fmt.Errorf("serve: session %s: access %d served as seq %d",
								r.id, expect, ar.Seq)
							return
						}
						expect++
					}
				}
				return
			}
			next := time.Now()
			for i, rec := range r.recs {
				if interval > 0 {
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
					next = next.Add(interval)
				}
				t0 := time.Now()
				resp, err := e.Access(r.id, rec)
				if err != nil {
					r.err = err
					return
				}
				r.hist.ObserveDuration(time.Since(t0))
				if resp.Seq != uint64(i+1) {
					r.orderOK = false
					r.err = fmt.Errorf("serve: session %s: access %d served as seq %d",
						r.id, i+1, resp.Seq)
					return
				}
			}
		}(r, interval)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, r := range runs {
		if r.err != nil {
			return MatrixReport{}, r.err
		}
	}

	// Close every session and fold results per tenant. Wire sessions close
	// over their own connection so the final result crosses the protocol.
	perTenant := make([][]sim.Result, len(specs))
	hists := make([]*metrics.Histogram, len(specs))
	for i := range hists {
		hists[i] = &metrics.Histogram{}
	}
	orderOK := make([]bool, len(specs))
	identical := make([]bool, len(specs))
	for i := range orderOK {
		orderOK[i], identical[i] = true, true
	}
	for _, r := range runs {
		var err error
		if r.client != nil {
			r.result, err = r.client.CloseSession(r.id)
		} else {
			r.result, err = e.Close(r.id)
		}
		delete(open, r.id)
		if err != nil {
			return MatrixReport{}, err
		}
		perTenant[r.tenant] = append(perTenant[r.tenant], r.result)
		hists[r.tenant].Merge(r.hist)
		orderOK[r.tenant] = orderOK[r.tenant] && r.orderOK
	}

	// Offline verification pass for checkable tenants.
	unchecked := make([]bool, len(specs))
	if spec.Verify {
		for _, r := range runs {
			t := specs[r.tenant]
			if !spec.classVerifiable(t.Class) {
				unchecked[r.tenant] = true
				continue
			}
			off, err := spec.offline(t.Class, t.Degree, t.SimCfg, r.recs)
			if err != nil {
				// The class is not resolvable offline (e.g. a remote-only
				// class): completeness still applies, bit-identity cannot.
				unchecked[r.tenant] = true
				continue
			}
			identical[r.tenant] = identical[r.tenant] && off == r.result
		}
	}

	var admissions map[string]TenantAdmission
	if e != nil {
		admissions = e.TenantAdmissions()
	}
	rep := MatrixReport{WallSeconds: wall.Seconds(), Complete: true, Verified: spec.Verify}
	for ti, t := range specs {
		merged := sim.Merge(perTenant[ti])
		merged.Prefetcher = t.Class
		complete := orderOK[ti] && merged.Accesses == t.Sessions*t.N
		tr := TenantReport{
			Tenant:    t.Name,
			Workload:  t.Workload,
			Class:     t.Class,
			Sessions:  t.Sessions,
			Merged:    merged,
			Latency:   hists[ti].Summarize(),
			Complete:  complete,
			Verified:  spec.Verify && !unchecked[ti] && identical[ti],
			Unchecked: spec.Verify && unchecked[ti],
			Admission: admissions[t.Name],
		}
		rep.Tenants = append(rep.Tenants, tr)
		rep.TotalAccesses += merged.Accesses
		rep.Complete = rep.Complete && complete
		rep.Verified = rep.Verified && (tr.Verified || tr.Unchecked)
	}
	if wall > 0 {
		rep.Throughput = float64(rep.TotalAccesses) / wall.Seconds()
	}
	return rep, nil
}

// String renders a matrix report for the CLI.
func (r MatrixReport) String() string {
	s := fmt.Sprintf("matrix: %d tenants, %d accesses in %.2fs (%.0f acc/s), complete=%v\n",
		len(r.Tenants), r.TotalAccesses, r.WallSeconds, r.Throughput, r.Complete)
	for _, t := range r.Tenants {
		verify := ""
		if t.Verified {
			verify = "  [= offline]"
		} else if t.Unchecked {
			verify = "  [unchecked]"
		}
		s += fmt.Sprintf("  %-10s %-8s class=%-8s sess=%d  IPC %.3f  acc %5.1f%%  misses %d  l2hits %d  complete=%v%s\n",
			t.Tenant, t.Workload, t.Class, t.Sessions,
			t.Merged.IPC, t.Merged.Accuracy()*100, t.Merged.DemandMisses,
			t.Merged.L2Hits, t.Complete, verify)
		if t.Admission.Queries > 0 {
			s += fmt.Sprintf("             admission: weight %d, %d queries, starved %d batches, max wait %d batches\n",
				t.Admission.Weight, t.Admission.Queries, t.Admission.Starved, t.Admission.MaxWaitBatches)
		}
		s += fmt.Sprintf("             latency: %s\n", t.Latency)
	}
	return s
}
