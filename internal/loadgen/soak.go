package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dart/internal/serve"
	"dart/internal/sim"
	"dart/internal/trace"
)

// TenantSpec is one row of a scenario matrix: a named tenant driving some
// number of concurrent sessions of one workload-zoo scenario through one
// serving class, under its own QPS budget, fair-share weight, and
// (optionally) its own cache hierarchy.
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

// Matrix is -matrix's load: each tenant's sessions, tenant by tenant, with
// ids "<tenant>/<i>". Session i of round r generates the tenant's workload
// at seed Seed+1000*r+i, and the tenant's QPS is split evenly across its
// sessions.
func Matrix(tenants []TenantSpec) func(round int) ([]Session, error) {
	return func(round int) ([]Session, error) {
		if len(tenants) == 0 {
			return nil, fmt.Errorf("loadgen: empty scenario matrix")
		}
		var out []Session
		seen := map[string]bool{}
		for i, t := range tenants {
			t = t.withDefaults()
			if t.Name == "" {
				return nil, fmt.Errorf("loadgen: tenant %d has no name", i)
			}
			if seen[t.Name] {
				return nil, fmt.Errorf("loadgen: duplicate tenant %q", t.Name)
			}
			seen[t.Name] = true
			w, ok := trace.WorkloadByName(t.Workload)
			if !ok {
				return nil, fmt.Errorf("loadgen: tenant %q: unknown workload %q", t.Name, t.Workload)
			}
			opt := serve.SessionOptions{Prefetcher: t.Class, Degree: t.Degree,
				Tenant: t.Name, Weight: t.Weight, SimCfg: t.SimCfg}
			for si := 0; si < t.Sessions; si++ {
				out = append(out, Session{
					ID: fmt.Sprintf("%s/%d", t.Name, si), Workload: t.Workload, Opts: opt,
					Recs: w.Generate(t.Seed+int64(1000*round+si), t.N),
					QPS:  t.QPS / float64(t.Sessions),
				})
			}
		}
		return out, nil
	}
}

// Apps is -replay's load: sessions streams of n accesses cycling through
// trace.Apps(), all opened with opt and sharing qps evenly. Session i of
// round r is app i mod len(Apps) with its seed offset by
// 1000*(i/len(Apps)+1) + 101*r, and id "r<round>-core<i>-<app>".
func Apps(sessions, n int, opt serve.SessionOptions, qps float64) func(round int) ([]Session, error) {
	return func(round int) ([]Session, error) {
		apps := trace.Apps()
		out := make([]Session, sessions)
		for i := range out {
			app := apps[i%len(apps)]
			app.Seed += int64(1000*(i/len(apps)+1) + 101*round)
			out[i] = Session{
				ID:       fmt.Sprintf("r%03d-core%02d-%s", round, i, app.Name),
				Workload: app.Name, Opts: opt, Recs: trace.Generate(app, n),
				QPS: qps / float64(sessions),
			}
		}
		return out, nil
	}
}

// Soak runs spec.Load's rounds until d has elapsed — one round when d <= 0 —
// and returns the last round's report. A non-nil hook wraps every round: it
// gets the round number and the round itself, which it must call once
// (dart-router's chaos kill runs beside it). Every round must be complete
// and, with Verify, every checkable session bit-identical to the offline
// simulator; the first round that is not ends the soak with an error naming
// the session.
func Soak(spec Spec, d time.Duration, hook func(round int, run func())) (Report, error) {
	if spec.Load == nil {
		return Report{}, fmt.Errorf("loadgen: spec has no Load")
	}
	log := spec.Log
	if log == nil {
		log = io.Discard
	}
	deadline := time.Now().Add(d)
	for round := 0; ; round++ {
		sessions, err := spec.Load(round)
		if err != nil {
			return Report{}, err
		}
		var rep Report
		do := func() { rep, err = Run(spec, sessions) }
		if hook != nil {
			hook(round, do)
		} else {
			do()
		}
		if err != nil {
			return rep, fmt.Errorf("round %d: %w", round, err)
		}
		fmt.Fprint(log, rep)
		unchecked := 0
		for _, s := range rep.Sessions {
			switch {
			case !s.Complete:
				return rep, fmt.Errorf("round %d: COMPLETENESS FAILED: session %s accounted %d of %d accesses",
					round, s.ID, s.Result.Accesses, s.Submitted)
			case spec.Verify && s.Unchecked:
				unchecked++
			case spec.Verify && !s.Verified:
				return rep, fmt.Errorf("round %d: VERIFY FAILED: session %s is not bit-identical to the offline simulator",
					round, s.ID)
			}
		}
		if spec.Verify {
			fmt.Fprintf(log, "verify: %d sessions bit-identical to offline sim", len(rep.Sessions)-unchecked)
			if unchecked > 0 {
				fmt.Fprintf(log, "; %d on versioned classes checked for completeness only", unchecked)
			}
			fmt.Fprintln(log)
		} else {
			fmt.Fprintf(log, "completeness: %d sessions, %d accesses delivered in order\n",
				len(rep.Sessions), rep.Merged.Accesses)
		}
		if d <= 0 || time.Now().After(deadline) {
			return rep, nil
		}
	}
}

// WriteJSON writes rep to path as {generated, command, host, report},
// overwriting the file: the one -json shape of dart-serve and dart-router.
func WriteJSON(path string, rep Report) error {
	type host struct {
		GOMAXPROCS int    `json:"gomaxprocs"`
		Go         string `json:"go"`
	}
	out, err := json.MarshalIndent(struct {
		Generated string `json:"generated"`
		Command   string `json:"command"`
		Host      host   `json:"host"`
		Report    Report `json:"report"`
	}{
		Generated: time.Now().Format("2006-01-02"),
		Command:   strings.Join(os.Args, " "),
		Host:      host{runtime.GOMAXPROCS(0), runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH},
		Report:    rep,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// ParseMatrixSpec turns a scenario-matrix spec string into tenant specs — the
// grammar both dart-serve and dart-router expose behind their -matrix-spec
// flags. Tenants are semicolon-separated, each "name:key=value,..." — e.g.
//
//	hot:workload=zipf,sessions=4,n=2000,class=dart,qps=5000,weight=3;\
//	cold:workload=chase,class=online,cache=twolevel
//
// Keys: workload (required; any trace.Workloads name), sessions, n, class,
// degree, qps, weight, seed, cache (default|twolevel). Unset keys take the
// TenantSpec defaults; cache "" uses the engine's machine model.
func ParseMatrixSpec(spec string) ([]TenantSpec, error) {
	var tenants []TenantSpec
	for _, raw := range strings.Split(spec, ";") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		name, rest, ok := strings.Cut(raw, ":")
		if !ok || strings.TrimSpace(name) == "" {
			return nil, fmt.Errorf("tenant %q: want name:key=value,...", raw)
		}
		t := TenantSpec{Name: strings.TrimSpace(name)}
		for _, kv := range strings.Split(rest, ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("tenant %q: bad pair %q", t.Name, kv)
			}
			var err error
			switch k {
			case "workload":
				if _, ok := trace.WorkloadByName(v); !ok {
					return nil, fmt.Errorf("tenant %q: unknown workload %q", t.Name, v)
				}
				t.Workload = v
			case "class":
				t.Class = v
			case "sessions":
				t.Sessions, err = strconv.Atoi(v)
			case "n":
				t.N, err = strconv.Atoi(v)
			case "degree":
				t.Degree, err = strconv.Atoi(v)
			case "weight":
				t.Weight, err = strconv.Atoi(v)
			case "qps":
				t.QPS, err = strconv.ParseFloat(v, 64)
			case "seed":
				t.Seed, err = strconv.ParseInt(v, 10, 64)
			case "cache":
				var cfg sim.Config
				switch v {
				case "default":
					cfg = sim.DefaultConfig()
				case "twolevel":
					cfg = sim.TwoLevelConfig()
				default:
					return nil, fmt.Errorf("tenant %q: unknown cache %q (default|twolevel)", t.Name, v)
				}
				t.SimCfg = &cfg
			default:
				return nil, fmt.Errorf("tenant %q: unknown key %q", t.Name, k)
			}
			if err != nil {
				return nil, fmt.Errorf("tenant %q: %s=%q: %w", t.Name, k, v, err)
			}
		}
		if t.Workload == "" {
			return nil, fmt.Errorf("tenant %q: workload is required", t.Name)
		}
		tenants = append(tenants, t)
	}
	if len(tenants) == 0 {
		return nil, fmt.Errorf("empty matrix spec")
	}
	return tenants, nil
}

// DefaultMatrixSpec is the mixed-tenant scenario the nightly soak replays
// when -matrix is given no spec: four tenants across four workload-zoo
// families, two cache hierarchies, and (when the tiers are up) all three
// hot-swappable serving classes plus a classical baseline.
const DefaultMatrixSpec = "svc:workload=chase,sessions=2,n=2000,class=online,weight=3;" +
	"kv:workload=zipf,sessions=2,n=2000,class=student,cache=twolevel;" +
	"adv:workload=phase,sessions=1,n=2000,class=dart,cache=twolevel;" +
	"batch:workload=milc,sessions=1,n=2000,class=stride"

// DefaultRouterMatrixSpec is DefaultMatrixSpec restricted to deterministic
// classes — the routed variant: router backends train independently, so the
// versioned classes are meaningless across shards, but classical classes
// verify bit-identically through the sharding tier.
const DefaultRouterMatrixSpec = "svc:workload=chase,sessions=2,n=2000,class=isb,weight=3;" +
	"kv:workload=zipf,sessions=2,n=2000,class=bo,cache=twolevel;" +
	"adv:workload=phase,sessions=1,n=2000,class=stride,cache=twolevel;" +
	"batch:workload=milc,sessions=1,n=2000,class=stride"
