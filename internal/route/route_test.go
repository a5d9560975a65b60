package route

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dart/internal/loadgen"
	"dart/internal/prefetch"
	"dart/internal/serve"
	"dart/internal/sim"
	"dart/internal/trace"
)

// --- harness -----------------------------------------------------------

// smallSimCfg keeps the LLC small so prefetchers matter on short traces (the
// same model the serve tests use, so offline verification is meaningful).
func smallSimCfg() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.LLCBlocks = 4096
	return cfg
}

func sessionTrace(seed int64, n int) []trace.Record {
	return trace.Generate(trace.AppSpec{
		Name: "route", Pages: 300, Streams: 3,
		Strides: []int64{1, 2, 5}, IrregularFrac: 0.1, Seed: seed,
	}, n)
}

// offlineRun is the single-node ground truth a routed session must match.
func offlineRun(t testing.TB, class string, degree int, recs []trace.Record) sim.Result {
	t.Helper()
	pf, err := prefetch.NewRegistry().New(class, degree)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Run(recs, pf, smallSimCfg())
}

// testBackend is one in-process dart-serve shard on a loopback TCP port. kill
// drops it mid-run; restart brings a FRESH engine up on the same address, so
// any state a test sees afterwards must have come through the router's
// journal catch-up.
type testBackend struct {
	t    testing.TB
	name string
	addr string

	mu  sync.Mutex
	srv *serve.Server
}

func startBackend(t testing.TB, name string) *testBackend {
	t.Helper()
	b := &testBackend{t: t, name: name}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b.addr = ln.Addr().String()
	b.start(ln)
	t.Cleanup(b.kill)
	return b
}

func (b *testBackend) start(ln net.Listener) {
	srv := serve.NewServer(serve.NewEngine(serve.Config{SimCfg: smallSimCfg()}))
	go srv.Serve(ln)
	b.mu.Lock()
	b.srv = srv
	b.mu.Unlock()
}

// kill stops the shard: listener and live connections close, in-flight calls
// fail. The engine is abandoned with whatever sessions it held — exactly a
// crashed process as the router sees it.
func (b *testBackend) kill() {
	b.mu.Lock()
	srv := b.srv
	b.srv = nil
	b.mu.Unlock()
	if srv != nil {
		srv.Stop()
	}
}

// restart brings the shard back on the same address with a fresh engine (no
// session survives the crash). The port was just freed by kill, so retry
// briefly if the OS hasn't released it yet.
func (b *testBackend) restart() {
	b.t.Helper()
	var ln net.Listener
	var err error
	for i := 0; i < 100; i++ {
		if ln, err = net.Listen("tcp", b.addr); err == nil {
			break
		}
		// The OS signals nothing when it releases a port, so poll.
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		b.t.Fatalf("restart %s on %s: %v", b.name, b.addr, err)
	}
	b.start(ln)
}

func backendSpecs(bs []*testBackend) []BackendSpec {
	specs := make([]BackendSpec, len(bs))
	for i, b := range bs {
		specs[i] = BackendSpec{Name: b.name, Addr: b.addr}
	}
	return specs
}

// startCluster spins n backends and a router over them.
func startCluster(t testing.TB, n int, cfg Config) ([]*testBackend, *Router) {
	t.Helper()
	bs := make([]*testBackend, n)
	for i := range bs {
		bs[i] = startBackend(t, fmt.Sprintf("b%d", i))
	}
	cfg.Backends = backendSpecs(bs)
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return bs, r
}

// watchHealth returns a Config.Logf that logs to t and forwards the router's
// eject and readmit events, which awaitHealth waits on.
func watchHealth(t testing.TB) (func(format string, args ...any), <-chan string) {
	events := make(chan string, 64) // far more than the few ejects and readmits a test causes
	return func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		t.Log(msg)
		if strings.Contains(msg, " ejected") || strings.Contains(msg, " readmitted") {
			select {
			case events <- msg:
			default: // nobody waits on a flood; never block the prober
			}
		}
	}, events
}

// awaitHealth blocks until the router logs an event containing want, e.g.
// "backend b0 ejected" or "backend b0 readmitted".
func awaitHealth(t testing.TB, events <-chan string, want string) {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for {
		select {
		case msg := <-events:
			if strings.Contains(msg, want) {
				return
			}
		case <-timeout:
			t.Fatalf("router never logged %q", want)
		}
	}
}

// startFrontEnd exposes a router on its own loopback listener and returns the
// address clients (and loadgen specs) dial.
func startFrontEnd(t testing.TB, r *Router) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(r)
	go srv.Serve(ln)
	t.Cleanup(srv.Stop)
	return ln.Addr().String()
}

// --- ring properties ---------------------------------------------------

// TestRingStability is the consistent-hashing property the whole tier rests
// on: readmitting one backend to a 4-alive ring of 5 must move roughly 1/5 of
// the tenants — not reshuffle the world like a modulo hash would.
func TestRingStability(t *testing.T) {
	nodes := []string{"b0", "b1", "b2", "b3", "b4"}
	ring := NewRing(nodes, 0, 0)
	const keys = 1000
	ks := make([]string, keys)
	for i := range ks {
		ks[i] = fmt.Sprintf("tenant-%04d", i)
	}
	alive4 := map[string]bool{"b0": true, "b1": true, "b2": true, "b3": true}
	alive5 := map[string]bool{"b0": true, "b1": true, "b2": true, "b3": true, "b4": true}

	p4 := ring.Placement(ks, alive4)
	p5 := ring.Placement(ks, alive5)
	moved := 0
	for i := range ks {
		if p4[i] != p5[i] {
			moved++
		}
	}
	// Ideal is keys/5 = 200; the load bound adds some churn on top. Anything
	// under 35% is consistent hashing; a modulo hash moves ~80%.
	if moved == 0 || moved > keys*35/100 {
		t.Fatalf("adding 1 of 5 nodes moved %d/%d keys, want ~%d", moved, keys, keys/5)
	}
	// Determinism: the same inputs place identically.
	again := ring.Placement(ks, alive5)
	for i := range ks {
		if p5[i] != again[i] {
			t.Fatalf("placement not deterministic at key %d: %s vs %s", i, p5[i], again[i])
		}
	}
}

// TestRingBoundedLoad pins the B in CHWBL: a single hot tenant opening many
// sessions shares one hash point, so without the bound every session would
// land on one backend. The bound must spill the excess instead.
func TestRingBoundedLoad(t *testing.T) {
	ring := NewRing([]string{"b0", "b1", "b2", "b3"}, 0, 1.25)
	alive := map[string]bool{"b0": true, "b1": true, "b2": true, "b3": true}
	const sessions = 400
	ks := make([]string, sessions)
	for i := range ks {
		ks[i] = "hot-tenant" // every session hashes identically
	}
	placed := ring.Placement(ks, alive)
	loads := map[string]int{}
	for _, node := range placed {
		loads[node]++
	}
	// bound = ceil(1.25 * 400 / 4) = 125.
	for node, n := range loads {
		if n > 126 {
			t.Fatalf("backend %s got %d of %d hot-tenant sessions (bound ~125): %v", node, n, sessions, loads)
		}
	}
	if len(loads) < 4 {
		t.Fatalf("hot tenant only spilled to %d of 4 backends: %v", len(loads), loads)
	}
	// And the flip side: a cold tenant's few sessions stay together.
	cold := ring.Placement([]string{"cold", "cold", "cold"}, alive)
	if cold[0] != cold[1] || cold[1] != cold[2] {
		t.Fatalf("cold tenant's 3 sessions split across backends: %v", cold)
	}
}

// --- routed serving ----------------------------------------------------

// TestRoutedAccessAndStats drives sessions straight through the Router API
// and checks placement spread, seq continuity, and the merged stats verb.
func TestRoutedAccessAndStats(t *testing.T) {
	_, r := startCluster(t, 3, Config{HealthInterval: -1})
	const sessions, n = 9, 300
	for i := 0; i < sessions; i++ {
		id := fmt.Sprintf("s%d", i)
		err := r.OpenSession(id, serve.SessionOptions{Prefetcher: "stride", Degree: 4, Tenant: fmt.Sprintf("t%d", i)})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < sessions; i++ {
		id := fmt.Sprintf("s%d", i)
		recs := sessionTrace(int64(i), n)
		var seq uint64
		for lo := 0; lo < n; lo += 32 {
			hi := min(lo+32, n)
			res, err := r.Access(id, recs[lo:hi])
			if err != nil {
				t.Fatal(err)
			}
			for _, ar := range res {
				seq++
				if ar.Seq != seq {
					t.Fatalf("session %s: seq %d after %d — dropped or reordered", id, ar.Seq, seq-1)
				}
			}
		}
	}

	rep, err := r.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Sessions != sessions {
		t.Fatalf("merged stats counts %d sessions, want %d", rep.Stats.Sessions, sessions)
	}
	if len(rep.Stats.Backends) != 3 {
		t.Fatalf("stats has %d backend rows, want 3", len(rep.Stats.Backends))
	}
	placed := 0
	for _, row := range rep.Stats.Backends {
		if !row.Healthy {
			t.Fatalf("backend %s unhealthy: %s", row.Name, row.Err)
		}
		placed += row.Sessions
	}
	if placed != sessions {
		t.Fatalf("backend rows account for %d sessions, want %d", placed, sessions)
	}
	// A healthy row's wire form carries exactly these keys (docs/PROTOCOL.md).
	raw, err := json.Marshal(rep.Stats.Backends[0])
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]any
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if got, want := slices.Sorted(maps.Keys(keys)), []string{"addr", "healthy", "name", "sessions"}; !slices.Equal(got, want) {
		t.Fatalf("backend row keys %v, want %v", got, want)
	}

	for i := 0; i < sessions; i++ {
		id := fmt.Sprintf("s%d", i)
		res, err := r.CloseSession(id)
		if err != nil {
			t.Fatal(err)
		}
		if want := offlineRun(t, "stride", 4, sessionTrace(int64(i), n)); res != want {
			t.Fatalf("session %s not bit-identical to offline sim:\n got %+v\nwant %+v", id, res, want)
		}
	}
	if ids := r.Sessions(); len(ids) != 0 {
		t.Fatalf("router still tracks %v after closing everything", ids)
	}
}

// strideSession is one unnamed-tenant stride session of the load generator.
func strideSession(id string, recs []trace.Record) loadgen.Session {
	return loadgen.Session{ID: id, Recs: recs, Opts: serve.SessionOptions{Prefetcher: "stride", Degree: 4}}
}

// TestRoutedReplayBitIdentical is the tentpole acceptance check in miniature:
// the load generator dialing a dart-router front-end over binary framing,
// -verify semantics on, across 3 backends.
func TestRoutedReplayBitIdentical(t *testing.T) {
	_, r := startCluster(t, 3, Config{HealthInterval: -1})
	addr := startFrontEnd(t, r)

	var sessions []loadgen.Session
	for i := 0; i < 6; i++ {
		sessions = append(sessions, strideSession(fmt.Sprintf("replay-%d", i), sessionTrace(int64(100+i), 600)))
	}
	cfg := smallSimCfg()
	rep, err := loadgen.Run(loadgen.Spec{
		Addr: addr, Proto: "binary", Batch: 32,
		Verify: true, VerifySimCfg: &cfg,
	}, sessions)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified {
		t.Fatalf("routed replay not bit-identical to offline: %s", rep)
	}
	if want := 6 * 600; rep.Merged.Accesses != want {
		t.Fatalf("routed replay served %d accesses, want %d", rep.Merged.Accesses, want)
	}
}

// TestRoutedMatrixMixedTenants runs the router's default mixed-tenant
// scenario matrix through the front-end with verification on — deterministic
// classes only, so every tenant is checkable.
func TestRoutedMatrixMixedTenants(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-tenant routed soak")
	}
	_, r := startCluster(t, 3, Config{HealthInterval: -1})
	addr := startFrontEnd(t, r)

	tenants, err := loadgen.ParseMatrixSpec(loadgen.DefaultRouterMatrixSpec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tenants {
		tenants[i].N = 500 // keep the default scenario, shrink the soak
	}
	cfg := smallSimCfg()
	rep, err := loadgen.Soak(loadgen.Spec{
		Addr: addr, Proto: "binary", Batch: 32,
		Verify: true, VerifySimCfg: &cfg,
		Load: loadgen.Matrix(tenants),
	}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete {
		t.Fatalf("routed matrix dropped or reordered accesses: %s", rep)
	}
	if !rep.Verified {
		t.Fatalf("routed matrix not bit-identical to offline: %s", rep)
	}
}

// TestRoutedReplayJSONProto: the front end's other protocol — the same replay
// over line-delimited JSON must verify bit-identically too (the router
// re-encodes to binary toward the backends either way).
func TestRoutedReplayJSONProto(t *testing.T) {
	_, r := startCluster(t, 2, Config{HealthInterval: -1})
	addr := startFrontEnd(t, r)

	var sessions []loadgen.Session
	for i := 0; i < 3; i++ {
		sessions = append(sessions, strideSession(fmt.Sprintf("jr-%d", i), sessionTrace(int64(400+i), 300)))
	}
	cfg := smallSimCfg()
	rep, err := loadgen.Run(loadgen.Spec{
		Addr: addr, Proto: "json",
		Verify: true, VerifySimCfg: &cfg,
	}, sessions)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified {
		t.Fatalf("JSON routed replay not bit-identical to offline: %s", rep)
	}
	if want := 3 * 300; rep.Merged.Accesses != want {
		t.Fatalf("JSON routed replay served %d accesses, want %d", rep.Merged.Accesses, want)
	}
}

// TestJSONFrontEndErrors pokes the front end's JSON error paths with a raw
// connection: malformed lines resynchronize, unknown sessions error without
// killing the stream, and sessions left open are reclaimed when the
// connection drops.
func TestJSONFrontEndErrors(t *testing.T) {
	_, r := startCluster(t, 2, Config{HealthInterval: -1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan string, 1)
	var conns serve.Acceptor
	go conns.Serve(ln, closeSpy{r, closed})
	t.Cleanup(conns.Stop)

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	roundTrip := func(line string) serve.Reply {
		t.Helper()
		if _, err := fmt.Fprintln(conn, line); err != nil {
			t.Fatal(err)
		}
		if !sc.Scan() {
			t.Fatalf("no reply to %q: %v", line, sc.Err())
		}
		var rep serve.Reply
		if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
			t.Fatalf("reply to %q is not JSON: %q", line, sc.Text())
		}
		return rep
	}

	if rep := roundTrip(`{"op":"open","session":"j1","prefetcher":"stride","degree":4,"tenant":"t"}`); !rep.OK {
		t.Fatalf("open failed: %+v", rep)
	}
	rep := roundTrip(`{"op":"access","session":"j1","instr_id":1,"pc":"0x400000","addr":"0x10000040","is_load":true}`)
	if !rep.OK || rep.Seq != 1 {
		t.Fatalf("access reply: %+v", rep)
	}
	if rep := roundTrip(`{"op":"access"`); rep.OK {
		t.Fatal("malformed line did not error")
	}
	// The malformed line resynchronized: the stream still works.
	if rep := roundTrip(`{"op":"access","session":"nope","addr":"0x1"}`); rep.OK || !strings.Contains(rep.Err, "unknown session") {
		t.Fatalf("unknown session: %+v", rep)
	}
	if rep := roundTrip(`{"op":"stats"}`); !rep.OK || len(rep.Stats.Backends) != 2 {
		t.Fatalf("stats over JSON: %+v", rep)
	}

	// Drop the connection with j1 still open: the front end must reclaim it.
	conn.Close()
	select {
	case id := <-closed:
		if id != "j1" {
			t.Fatalf("reclaimed %q, want j1", id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("session not reclaimed after its connection dropped")
	}
	if got := r.Sessions(); len(got) != 0 {
		t.Fatalf("router still tracks %v after its connection dropped", got)
	}
}

// closeSpy is the router's Front, reporting every session it closes.
type closeSpy struct {
	*Router
	closed chan<- string
}

func (f closeSpy) CloseSession(id string) (sim.Result, error) {
	res, err := f.Router.CloseSession(id)
	f.closed <- id
	return res, err
}

// --- failure modes -----------------------------------------------------

// TestBackendDownAtDial starts the router with one backend already dead: every
// session must still open (placed around the corpse), and stats must report
// the dead shard unhealthy.
func TestBackendDownAtDial(t *testing.T) {
	live0 := startBackend(t, "b0")
	live1 := startBackend(t, "b1")
	dead := startBackend(t, "b2")
	dead.kill()

	r, err := NewRouter(Config{
		Backends:       backendSpecs([]*testBackend{live0, live1, dead}),
		HealthInterval: -1,
		HealthFails:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("s%d", i)
		if err := r.OpenSession(id, serve.SessionOptions{Prefetcher: "stride", Degree: 4, Tenant: id}); err != nil {
			t.Fatalf("open %s with a dead backend in the ring: %v", id, err)
		}
		if _, err := r.Access(id, sessionTrace(int64(i), 64)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := r.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var sawDead bool
	for _, row := range rep.Stats.Backends {
		if row.Name == "b2" {
			sawDead = true
			if row.Healthy {
				t.Fatal("dead backend b2 still reported healthy")
			}
			if row.Sessions != 0 {
				t.Fatalf("dead backend b2 owns %d sessions", row.Sessions)
			}
		}
	}
	if !sawDead {
		t.Fatal("stats is missing the dead backend's row")
	}
}

// TestAllBackendsDown: with nothing alive the router must fail fast with a
// clear error, not hang or panic.
func TestAllBackendsDown(t *testing.T) {
	b := startBackend(t, "b0")
	b.kill()
	r, err := NewRouter(Config{
		Backends:       backendSpecs([]*testBackend{b}),
		HealthInterval: -1,
		HealthFails:    1,
		Timeout:        200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	err = r.OpenSession("s0", serve.SessionOptions{Prefetcher: "stride", Degree: 4})
	if err == nil {
		t.Fatal("open succeeded with every backend down")
	}
	if !strings.Contains(err.Error(), "no healthy backend") {
		t.Fatalf("open error %q, want no-healthy-backend", err)
	}
}

// TestBackendDiesMidSession kills a shard halfway through every session's
// trace. The router must migrate the dead shard's sessions — fresh open at a
// surviving backend, journal catch-up — and every close result must stay
// bit-identical to the single-node offline run, with no seq gap visible to
// the client.
func TestBackendDiesMidSession(t *testing.T) {
	bs, r := startCluster(t, 3, Config{HealthInterval: -1, HealthFails: 1, Timeout: time.Second})
	const sessions, n, batch = 6, 600, 32
	traces := make([][]trace.Record, sessions)
	for i := range traces {
		traces[i] = sessionTrace(int64(200+i), n)
		id := fmt.Sprintf("s%d", i)
		if err := r.OpenSession(id, serve.SessionOptions{Prefetcher: "stride", Degree: 4, Tenant: id}); err != nil {
			t.Fatal(err)
		}
	}
	seqs := make([]uint64, sessions)
	drive := func(lo, hi int) {
		t.Helper()
		for i := 0; i < sessions; i++ {
			id := fmt.Sprintf("s%d", i)
			for at := lo; at < hi; at += batch {
				res, err := r.Access(id, traces[i][at:min(at+batch, hi)])
				if err != nil {
					t.Fatalf("session %s at %d: %v", id, at, err)
				}
				for _, ar := range res {
					seqs[i]++
					if ar.Seq != seqs[i] {
						t.Fatalf("session %s: seq %d after %d — dropped or reordered across the kill",
							id, ar.Seq, seqs[i]-1)
					}
				}
			}
		}
	}

	drive(0, n/2)
	bs[1].kill() // mid-run crash; its sessions' live state is gone
	drive(n/2, n)

	for i := 0; i < sessions; i++ {
		id := fmt.Sprintf("s%d", i)
		res, err := r.CloseSession(id)
		if err != nil {
			t.Fatal(err)
		}
		if want := offlineRun(t, "stride", 4, traces[i]); res != want {
			t.Fatalf("session %s not bit-identical after mid-run backend death:\n got %+v\nwant %+v", id, res, want)
		}
	}
}

// TestHealthFlapEjectReadmit kills a backend long enough for the prober to
// eject it, restarts it (fresh engine, same address), and waits for the
// prober to readmit it. Sessions must survive the round trip — including the
// rebalance that moves some of them back onto the readmitted shard, whose
// fresh engine only knows them through journal catch-up.
func TestHealthFlapEjectReadmit(t *testing.T) {
	logf, health := watchHealth(t)
	bs, r := startCluster(t, 2, Config{
		HealthInterval: 10 * time.Millisecond,
		HealthFails:    2,
		Timeout:        time.Second,
		Logf:           logf,
	})
	const sessions, n, batch = 6, 480, 32
	traces := make([][]trace.Record, sessions)
	for i := range traces {
		traces[i] = sessionTrace(int64(300+i), n)
		id := fmt.Sprintf("s%d", i)
		if err := r.OpenSession(id, serve.SessionOptions{Prefetcher: "stride", Degree: 4, Tenant: id}); err != nil {
			t.Fatal(err)
		}
	}
	drive := func(lo, hi int) {
		t.Helper()
		for i := 0; i < sessions; i++ {
			id := fmt.Sprintf("s%d", i)
			for at := lo; at < hi; at += batch {
				if _, err := r.Access(id, traces[i][at:min(at+batch, hi)]); err != nil {
					t.Fatalf("session %s at %d: %v", id, at, err)
				}
			}
		}
	}

	drive(0, n/3)
	bs[0].kill()
	awaitHealth(t, health, "backend b0 ejected")
	drive(n/3, 2*n/3)
	bs[0].restart()
	awaitHealth(t, health, "backend b0 readmitted") // rebalance drains sessions back
	drive(2*n/3, n)

	for i := 0; i < sessions; i++ {
		id := fmt.Sprintf("s%d", i)
		res, err := r.CloseSession(id)
		if err != nil {
			t.Fatal(err)
		}
		if want := offlineRun(t, "stride", 4, traces[i]); res != want {
			t.Fatalf("session %s not bit-identical across the health flap:\n got %+v\nwant %+v", id, res, want)
		}
	}
}

// TestControlFanout checks the router's control plane: read verbs forward to
// one healthy backend with the backend's answer (or error) passed through,
// mutating verbs fan to all and name the failing backend, and a hot verb in
// a control frame is rejected just like on a backend.
func TestControlFanout(t *testing.T) {
	_, r := startCluster(t, 3, Config{HealthInterval: -1})
	// These backends run no online learner, so the backend's own refusal must
	// come back through the router verbatim — not a router-invented error.
	rep := r.Control(serve.Request{Op: "classes"}, nil)
	if rep.OK || !strings.Contains(rep.Err, "no online learner") {
		t.Fatalf("classes pass-through: %+v", rep)
	}
	rep = r.Control(serve.Request{Op: "swap", Class: "online"}, nil)
	if rep.OK || !strings.Contains(rep.Err, "route: backend b0:") {
		t.Fatalf("swap fan-out should fail naming the first backend: %+v", rep)
	}
	rep = r.Control(serve.Request{Op: "access", Session: "x"}, nil)
	if rep.OK || !strings.Contains(rep.Err, "hot verb") {
		t.Fatalf("hot verb in control frame: %+v", rep)
	}
	rep = r.Control(serve.Request{Op: "flambé"}, nil)
	if rep.OK || !strings.Contains(rep.Err, "unknown op") {
		t.Fatalf("unknown op: %+v", rep)
	}
}

// TestErrorTriage pins the two error classifications the retry loops rest
// on: sessionGone spots a backend's "this session does not exist here"
// answers — decoded off the wire by the client, over either protocol — and
// nothing else, and transportError wraps-and-unwraps so errors.Is sees
// through it.
func TestErrorTriage(t *testing.T) {
	be := startBackend(t, "b0")
	for _, proto := range []string{"binary", "json"} {
		c, err := serve.Connect(be.addr, serve.WithProtocol(proto))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		_, accessErr := c.Access("ghost", sessionTrace(1, 1)[0])
		_, closeErr := c.CloseSession("ghost")
		for _, err := range []error{accessErr, closeErr} {
			if err == nil || !sessionGone(err) {
				t.Fatalf("%s: unknown-session answer %v not classified as gone", proto, err)
			}
		}
		if err := c.Open("x", "no-such-prefetcher", 4); err == nil || sessionGone(err) {
			t.Fatalf("%s: unrelated error %v classified as gone", proto, err)
		}
	}
	te := &transportError{cause: fmt.Errorf("dial: %w", io.ErrUnexpectedEOF)}
	if !errors.Is(te, io.ErrUnexpectedEOF) {
		t.Fatal("transportError hides its cause from errors.Is")
	}
	if !strings.Contains(te.Error(), "unexpected EOF") {
		t.Fatalf("transportError message: %q", te.Error())
	}
	if NewRing([]string{"b1", "b0"}, 0, 0).Nodes()[0] != "b0" {
		t.Fatal("ring nodes not sorted")
	}
}

// --- benchmarks --------------------------------------------------------

// benchAccess measures the per-access cost of frames of 64 against addr.
func benchAccess(b *testing.B, addr string) {
	c, err := serve.Connect(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.Open("bench", "stride", 4); err != nil {
		b.Fatal(err)
	}
	recs := sessionTrace(9, 1<<14)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; {
		lo := n % len(recs)
		hi := lo + 64
		if hi > len(recs) {
			hi = len(recs)
		}
		if hi-lo > b.N-n {
			hi = lo + b.N - n
		}
		if _, err := c.AccessBatch("bench", recs[lo:hi]); err != nil {
			b.Fatal(err)
		}
		n += hi - lo
	}
}

// BenchmarkRouterAccess is the routed hot path: client → router (decode,
// journal, re-encode) → backend and back, 64-access binary frames, ns/op per
// access. Gated by cmd/dart-benchcheck at <= 3x BenchmarkDirectAccess in the
// same run, which is the same trace without the router hop.
func BenchmarkRouterAccess(b *testing.B) {
	_, r := startCluster(b, 3, Config{HealthInterval: -1})
	addr := startFrontEnd(b, r)
	benchAccess(b, addr)
}

// BenchmarkDirectAccess is the single-hop baseline for the routed overhead
// gate: the identical drive against one backend, no router in between.
func BenchmarkDirectAccess(b *testing.B) {
	be := startBackend(b, "b0")
	benchAccess(b, be.addr)
}
