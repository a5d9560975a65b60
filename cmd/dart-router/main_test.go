package main

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

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

// TestRunRouterReplayEndToEnd drives the CLI's replay path against a live
// two-backend cluster and writes the report as JSON over a file that already
// holds something else — which the report replaces.
func TestRunRouterReplayEndToEnd(t *testing.T) {
	addr, _, _ := startFront(t, 2)
	out := filepath.Join(t.TempDir(), "report.json")
	if err := os.WriteFile(out, []byte(`{"binary":{"keep":"me"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	runRouterReplay(serve.ReplaySpec{
		Addr: addr, Proto: "binary", Batch: 32,
		Prefetcher: "stride", Degree: 4, Verify: true,
	}, 4, 500, 0, nil, out)

	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Binary  json.RawMessage `json:"binary"`
		Command string          `json:"command"`
		Report  serve.Report    `json:"report"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Binary != nil || doc.Command == "" {
		t.Fatalf("report did not replace the file:\n%s", raw)
	}
	if len(doc.Report.Sessions) != 4 || doc.Report.Throughput <= 0 || doc.Report.Merged.Accesses != 4*500 {
		t.Fatalf("report recorded %d sessions, %v acc/s, %d accesses",
			len(doc.Report.Sessions), doc.Report.Throughput, doc.Report.Merged.Accesses)
	}
}

// TestRunRouterMatrixOneRound drives the CLI's matrix path for a single
// round (no soak): the default deterministic-class spec through a live
// router, every tenant complete and verified. runRouterMatrix exits the
// process on violation, so completion is the assert.
func TestRunRouterMatrixOneRound(t *testing.T) {
	addr, _, _ := startFront(t, 2)
	runRouterMatrix(serve.ReplaySpec{
		Addr: addr, Proto: "binary", Batch: 32,
	}, "", 0, nil)
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
	runRouterReplay(serve.ReplaySpec{
		Addr: addr, Proto: "binary", Batch: 32,
		Prefetcher: "stride", Degree: 4, Verify: true,
	}, 2, 400, 0, nil, "")
}

// TestRunRouterMatrixChaosSoak is the nightly soak in miniature: the
// mixed-tenant matrix replays in rounds while the chaos hook kills and
// restarts spawned backends. runRouterMatrix exits the process on any
// dropped/reordered access or verify mismatch, so completion is the assert.
func TestRunRouterMatrixChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak takes a few seconds")
	}
	addr, spawned, r := startFront(t, 3)
	runRouterMatrix(serve.ReplaySpec{
		Addr: addr, Proto: "binary", Batch: 32,
	}, "", 2*time.Second, chaosFor(true, spawned, r))
}
