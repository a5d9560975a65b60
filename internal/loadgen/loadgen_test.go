package loadgen

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dart/internal/prefetch"
	"dart/internal/serve"
	"dart/internal/sim"
	"dart/internal/trace"
)

func sessionTrace(seed int64, n int) []trace.Record {
	return trace.Generate(trace.AppSpec{
		Name: "serve", Pages: 300, Streams: 3,
		Strides: []int64{1, 2, 5}, IrregularFrac: 0.1, Seed: seed,
	}, n)
}

// smallSimCfg keeps the LLC small so prefetchers matter on short traces.
func smallSimCfg() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.LLCBlocks = 4096
	return cfg
}

// backend serves a fresh small-LLC engine on a loopback port and returns its
// address: an Addr target for the wire paths.
func backend(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(serve.NewEngine(serve.Config{SimCfg: smallSimCfg()}))
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Shutdown() })
	return ln.Addr().String()
}

func TestSpecValidation(t *testing.T) {
	e := serve.NewEngine(serve.Config{})
	defer e.Drain()
	for _, spec := range []Spec{
		{},                                      // no target
		{Engine: e, Addr: "x:1", Proto: "json"}, // two targets
		{Addr: "x:1"},                           // an address needs a wire protocol
		{Engine: e, Proto: "carrier-pigeon"},
	} {
		if _, err := Run(spec, nil); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
	if _, err := Soak(Spec{Engine: e}, 0, nil); err == nil {
		t.Error("soak without a Load accepted")
	}
	if _, err := Run(Spec{Addr: "127.0.0.1:1", Proto: "binary"}, []Session{{ID: "x"}}); err == nil {
		t.Error("dialling a closed port succeeded")
	}
}

func TestReplayMatrixValidation(t *testing.T) {
	e := serve.NewEngine(serve.Config{SimCfg: smallSimCfg()})
	defer e.Drain()

	matrix := func(proto string, tenants ...TenantSpec) error {
		_, err := Soak(Spec{Engine: e, Proto: proto, Load: Matrix(tenants)}, 0, nil)
		return err
	}
	if err := matrix(""); err == nil {
		t.Fatal("empty matrix accepted")
	}
	if err := matrix("", TenantSpec{Workload: "zipf"}); err == nil {
		t.Fatal("unnamed tenant accepted")
	}
	if err := matrix("",
		TenantSpec{Name: "a", Workload: "zipf"},
		TenantSpec{Name: "a", Workload: "chase"},
	); err == nil {
		t.Fatal("duplicate tenant accepted")
	}
	if err := matrix("", TenantSpec{Name: "a", Workload: "no-such-workload"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	bad := smallSimCfg()
	bad.LLCWays = -1
	if err := matrix("", TenantSpec{Name: "a", Workload: "zipf", SimCfg: &bad}); err == nil {
		t.Fatal("invalid per-tenant sim config accepted")
	}
	if err := matrix("carrier-pigeon", TenantSpec{Name: "a", Workload: "zipf"}); err == nil {
		t.Fatal("unknown matrix protocol accepted")
	}
	if got := len(e.Sessions()); got != 0 {
		t.Fatalf("%d sessions leaked by failed matrix runs", got)
	}
}

// TestReplayThrottled checks the QPS pacing slows the run down.
func TestReplayThrottled(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	e := serve.NewEngine(serve.Config{SimCfg: smallSimCfg()})
	defer e.Drain()
	opt := serve.SessionOptions{Prefetcher: "stride", Degree: 4}
	rep, err := Run(Spec{Engine: e}, []Session{
		{ID: "a", Opts: opt, Recs: sessionTrace(1, 200), QPS: 1000},
		{ID: "b", Opts: opt, Recs: sessionTrace(2, 200), QPS: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 400 accesses at 2000/s aggregate should take ≈0.2s.
	if rep.WallSeconds < 0.15 {
		t.Fatalf("throttled replay finished in %.3fs, expected ≥0.15s", rep.WallSeconds)
	}
	if rep.Throughput > 3000 {
		t.Fatalf("throughput %.0f acc/s ignored the 2000/s target", rep.Throughput)
	}
}

// TestAppsLoad pins -replay's session list: ids, seeds and the even QPS
// split, round by round.
func TestAppsLoad(t *testing.T) {
	apps := trace.Apps()
	load := Apps(len(apps)+1, 50, serve.SessionOptions{Prefetcher: "bo"}, 900)
	for _, round := range []int{0, 2} {
		got, err := load(round)
		if err != nil {
			t.Fatal(err)
		}
		last := apps[0]
		last.Seed += int64(2000 + 101*round)
		want := Session{
			ID:   fmt.Sprintf("r%03d-core%02d-%s", round, len(apps), last.Name),
			Recs: trace.Generate(last, 50),
		}
		s := got[len(apps)]
		if s.ID != want.ID || fmt.Sprint(s.Recs) != fmt.Sprint(want.Recs) ||
			s.QPS != 100 || s.Opts.Prefetcher != "bo" {
			t.Fatalf("round %d: session %+v, want id %s", round, s.ID, want.ID)
		}
	}
}

// firstAccess prefetches nothing and closes stepped when a session of it
// steps its first access; by then the session is open.
type firstAccess struct {
	sim.NoPrefetcher
	once    *sync.Once
	stepped chan struct{}
}

func (f firstAccess) OnAccess(sim.Access) []uint64 {
	f.once.Do(func() { close(f.stepped) })
	return nil
}

// TestSoakFailures: a round that loses accesses or disagrees with the offline
// simulator ends the soak with an error naming the session.
func TestSoakFailures(t *testing.T) {
	stepped, once := make(chan struct{}), new(sync.Once)
	reg := prefetch.NewRegistry()
	reg.Register("first", func(int) sim.Prefetcher { return firstAccess{once: once, stepped: stepped} })
	e := serve.NewEngine(serve.Config{SimCfg: smallSimCfg(), Registry: reg})
	defer e.Drain()
	tiny := smallSimCfg()
	tiny.LLCBlocks = 256
	for _, tc := range []struct {
		name    string
		spec    Spec
		hook    func(round int, run func())
		wantErr string
	}{{
		// The hook closes the session out from under the round, so its
		// accesses stop being delivered.
		name: "incomplete round",
		spec: Spec{Engine: e, Load: Matrix([]TenantSpec{{Name: "t", Workload: "chase", Class: "first", N: 1 << 20}})},
		hook: func(_ int, run func()) {
			go func() {
				<-stepped
				e.Close("t/0")
			}()
			run()
		},
		wantErr: "session t/0",
	}, {
		// The offline re-run assumes a smaller LLC than the backend serves.
		name: "verify mismatch",
		spec: Spec{Addr: backend(t), Proto: "binary", Verify: true, VerifySimCfg: &tiny,
			Load: Matrix([]TenantSpec{{Name: "t", Workload: "zipf", N: 2000}})},
		wantErr: "VERIFY FAILED: session t/0",
	}} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Soak(tc.spec, 0, tc.hook)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("soak error = %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
	if got := e.Sessions(); len(got) != 0 {
		t.Fatalf("sessions leaked by failed rounds: %v", got)
	}
}

// TestSoakRounds: a timed soak runs several rounds, re-seeding each, logs a
// report per round, and the -json file carries the last one.
func TestSoakRounds(t *testing.T) {
	e := serve.NewEngine(serve.Config{SimCfg: smallSimCfg()})
	defer e.Drain()
	var log strings.Builder
	rounds := 0
	rep, err := Soak(Spec{Engine: e, Verify: true, Log: &log,
		Load: Matrix([]TenantSpec{{Name: "t", Workload: "zipf", N: 200, QPS: 4000}})},
		100*time.Millisecond, func(_ int, run func()) { rounds++; run() })
	if err != nil {
		t.Fatal(err)
	}
	if rounds < 2 || strings.Count(log.String(), "verify: 1 sessions bit-identical") != rounds {
		t.Fatalf("%d rounds, log:\n%s", rounds, log.String())
	}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := WriteJSON(path, rep); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Report Report `json:"report"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Report.Merged != rep.Merged || doc.Report.Engine == nil {
		t.Fatalf("JSON report does not round-trip:\n%s", raw)
	}
}

// TestMatrixProperty draws small scenario matrices over workload x
// deterministic class x cache hierarchy x transport from a seeded generator.
// Every draw must come back complete and bit-identical to the offline
// simulator; a failure prints the dart-serve invocation that reproduces it
// (every tenant names its cache, so the engine's default machine is moot).
func TestMatrixProperty(t *testing.T) {
	draws := 24
	if testing.Short() {
		draws = 8
	}
	var workloads []string
	for _, w := range trace.Workloads() {
		workloads = append(workloads, w.Name)
	}
	pick := func(rng *rand.Rand, xs ...string) string { return xs[rng.Intn(len(xs))] }
	rng := rand.New(rand.NewSource(26))
	for d := 0; d < draws; d++ {
		var tenants []string
		for i := 0; i <= rng.Intn(3); i++ {
			tenants = append(tenants, fmt.Sprintf("t%d:workload=%s,sessions=%d,n=%d,class=%s,cache=%s,seed=%d",
				i, pick(rng, workloads...), 1+rng.Intn(2), 100+rng.Intn(300),
				pick(rng, "stride", "bo", "isb"), pick(rng, "default", "twolevel"), rng.Intn(100)))
		}
		spec := strings.Join(tenants, ";")
		proto, batch := pick(rng, "direct", "json", "binary"), 1+rng.Intn(64)
		repro := fmt.Sprintf("dart-serve -matrix -proto %s -batch %d -matrix-spec '%s'", proto, batch, spec)

		parsed, err := ParseMatrixSpec(spec)
		if err != nil {
			t.Fatalf("draw %d: %v\nreproduce: %s", d, err, repro)
		}
		e := serve.NewEngine(serve.Config{})
		rep, err := Soak(Spec{Engine: e, Proto: proto, Batch: batch, Verify: true, Load: Matrix(parsed)}, 0, nil)
		e.Drain()
		if err != nil {
			t.Fatalf("draw %d: %v\nreproduce: %s", d, err, repro)
		}
		for _, tr := range rep.Tenants {
			if !tr.Complete || !tr.Verified {
				t.Fatalf("draw %d: tenant %s complete=%v verified=%v\nreproduce: %s",
					d, tr.Tenant, tr.Complete, tr.Verified, repro)
			}
		}
	}
}

func TestParseMatrixSpec(t *testing.T) {
	tenants, err := ParseMatrixSpec(
		"hot:workload=zipf,sessions=4,n=2000,class=dart,qps=5000,weight=3,cache=twolevel,seed=9;" +
			"cold:workload=chase,class=online,cache=default")
	if err != nil {
		t.Fatal(err)
	}
	if len(tenants) != 2 {
		t.Fatalf("%d tenants, want 2", len(tenants))
	}
	hot := tenants[0]
	if hot.Name != "hot" || hot.Workload != "zipf" || hot.Sessions != 4 || hot.N != 2000 ||
		hot.Class != "dart" || hot.QPS != 5000 || hot.Weight != 3 || hot.Seed != 9 {
		t.Fatalf("hot parsed wrong: %+v", hot)
	}
	if hot.SimCfg == nil || hot.SimCfg.L2Blocks == 0 {
		t.Fatalf("cache=twolevel did not select an L2: %+v", hot.SimCfg)
	}
	cold := tenants[1]
	if cold.SimCfg == nil || cold.SimCfg.L2Blocks != 0 {
		t.Fatalf("cache=default is not single-level: %+v", cold.SimCfg)
	}

	// The built-in matrices must always parse.
	def, err := ParseMatrixSpec(DefaultMatrixSpec)
	if err != nil {
		t.Fatalf("default matrix does not parse: %v", err)
	}
	if len(def) != 4 {
		t.Fatalf("default matrix has %d tenants, want 4", len(def))
	}
	routed, err := ParseMatrixSpec(DefaultRouterMatrixSpec)
	if err != nil {
		t.Fatalf("default router matrix does not parse: %v", err)
	}
	for _, tn := range routed {
		switch tn.Class {
		case "online", "student", "dart":
			t.Fatalf("router matrix tenant %q uses versioned class %q", tn.Name, tn.Class)
		}
	}

	for _, bad := range badMatrixSpecs {
		if _, err := ParseMatrixSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// badMatrixSpecs are specs the parser must reject; they also seed
// FuzzParseMatrixSpec.
var badMatrixSpecs = []string{
	"",
	"justaname",
	":workload=zipf",
	"a:workload=nope",
	"a:workload=zipf,sessions=x",
	"a:workload=zipf,cache=l9",
	"a:workload=zipf,color=red",
	"a:class=stride", // workload missing
	"a:workload",     // pair without =
}
