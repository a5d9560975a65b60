package main

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dart/internal/loadgen"
	"dart/internal/route"
	"dart/internal/serve"
)

// startFront spins up n in-process backends, a router over them, and the
// dual-protocol front end — the same wiring main() builds for -spawn.
func startFront(t *testing.T, n int) (addr string, spawned []*localBackend, router *route.Router) {
	t.Helper()
	var specs []route.BackendSpec
	for i := 0; i < n; i++ {
		lb, err := spawnBackend(names(i))
		if err != nil {
			t.Fatal(err)
		}
		spawned = append(spawned, lb)
		specs = append(specs, route.BackendSpec{Name: lb.name, Addr: lb.addr})
	}
	t.Cleanup(func() {
		for _, lb := range spawned {
			lb.kill()
		}
	})
	r, err := route.NewRouter(route.Config{
		Backends:       specs,
		HealthInterval: 20 * time.Millisecond,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := route.NewServer(r)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Stop() })
	return ln.Addr().String(), spawned, r
}

func names(i int) string { return "shard" + string(rune('0'+i)) }

func TestParseBackends(t *testing.T) {
	specs, err := parseBackends("a=1.2.3.4:7381, 5.6.7.8:7381,")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("parsed %d specs, want 2", len(specs))
	}
	if specs[0].Name != "a" || specs[0].Addr != "1.2.3.4:7381" {
		t.Fatalf("named form parsed as %+v", specs[0])
	}
	if specs[1].Name != "shard1" || specs[1].Addr != "5.6.7.8:7381" {
		t.Fatalf("bare form parsed as %+v", specs[1])
	}
}

// readReport decodes the report of a -json file.
func readReport(t *testing.T, path string) loadgen.Report {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Binary json.RawMessage `json:"binary"`
		Report loadgen.Report  `json:"report"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Binary != nil {
		t.Fatalf("report did not replace the file:\n%s", raw)
	}
	return doc.Report
}

// TestRunRouterReplayEndToEnd drives the CLI's replay path against a live
// two-backend cluster and writes the report as JSON over a file that already
// holds something else — which the report replaces.
func TestRunRouterReplayEndToEnd(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.json")
	if err := os.WriteFile(out, []byte(`{"binary":{"keep":"me"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-spawn", "2", "-replay", "-sessions", "4", "-n", "500", "-batch", "32",
		"-json", out}); err != nil {
		t.Fatal(err)
	}
	rep := readReport(t, out)
	if len(rep.Sessions) != 4 || rep.Throughput <= 0 || rep.Merged.Accesses != 4*500 || !rep.Verified {
		t.Fatalf("report recorded %d sessions, %v acc/s, %d accesses, verified=%v",
			len(rep.Sessions), rep.Throughput, rep.Merged.Accesses, rep.Verified)
	}
}

// TestRunRouterMatrixOneRound drives the CLI's matrix path for a single
// round (no soak): the default deterministic-class spec through a live
// router, every tenant complete and verified.
func TestRunRouterMatrixOneRound(t *testing.T) {
	if err := run([]string{"-spawn", "2", "-matrix", "-batch", "32"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunRouterMatrixWritesJSON: -json reaches -matrix, with one row per
// tenant, each verified through the router.
func TestRunRouterMatrixWritesJSON(t *testing.T) {
	out := filepath.Join(t.TempDir(), "matrix.json")
	if err := run([]string{"-spawn", "2", "-matrix", "-json", out, "-matrix-spec",
		"a:workload=chase,sessions=2,n=300,class=isb;b:workload=zipf,n=300,class=bo"}); err != nil {
		t.Fatal(err)
	}
	rep := readReport(t, out)
	if len(rep.Tenants) != 2 || !rep.Tenants[0].Verified || !rep.Tenants[1].Verified {
		t.Fatalf("matrix report rows: %+v", rep.Tenants)
	}
}

// TestChaosHookKillRestart exercises the chaos hook directly: it must kill
// the round's backend, restart it with a fresh engine on the same address,
// and not return before both happened. A replay through the router
// afterwards proves the restarted backend serves again.
func TestChaosHookKillRestart(t *testing.T) {
	addr, spawned, r := startFront(t, 2)
	hook := chaosFor(true, spawned, r)
	if hook == nil || chaosFor(false, spawned, r) != nil ||
		chaosFor(true, nil, r) != nil || chaosFor(true, spawned, nil) != nil {
		t.Fatal("chaosFor gating is wrong")
	}
	hook(0, func() {}) // round 0 kills+restarts spawned[0]
	if _, err := loadgen.Soak(loadgen.Spec{
		Addr: addr, Proto: "binary", Batch: 32, Verify: true,
		Load: loadgen.Apps(2, 400, serve.SessionOptions{Prefetcher: "stride", Degree: 4}, 0),
	}, 0, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRunRouterMatrixChaosSoak is the nightly soak in miniature: the
// mixed-tenant matrix replays in rounds while the chaos hook kills and
// restarts spawned backends; any dropped or reordered access or verify
// mismatch fails the run.
func TestRunRouterMatrixChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak takes a few seconds")
	}
	if err := run([]string{"-spawn", "3", "-matrix", "-batch", "32", "-soak", "2s", "-chaos",
		"-health-interval", "20ms"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunFlagErrors: bad flag combinations come back as errors, not exits.
func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-spawn", "1", "-backends", "a=127.0.0.1:1"},
		{"-chaos"},
		{},
		{"-spawn", "1"}, // no mode
		{"-spawn", "1", "-matrix", "-matrix-spec", "a:class=stride"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run %q succeeded", args)
		}
	}
}
