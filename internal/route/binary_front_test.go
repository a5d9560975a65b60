package route

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"io"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"dart/internal/serve"
)

// rawFrame hand-assembles one DARTWIRE1 frame: kind, 4-byte big-endian
// payload length, 4-byte big-endian CRC32, payload. Built by hand so these
// tests can also produce frames the client library would refuse to send.
func rawFrame(kind byte, payload []byte) []byte {
	buf := make([]byte, 9+len(payload))
	buf[0] = kind
	binary.BigEndian.PutUint32(buf[1:5], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[5:9], crc32.ChecksumIEEE(payload))
	copy(buf[9:], payload)
	return buf
}

// TestBinaryFrontEndErrors covers the front end's binary failure surface:
// a wrong protocol magic is refused in plain text, routed per-request
// failures (unknown session) come back as tagged error frames that keep
// the connection usable, and a corrupt control frame answers with a tag-0
// error frame before hanging up — the same contract a backend honours.
func TestBinaryFrontEndErrors(t *testing.T) {
	_, r := startCluster(t, 1, Config{HealthInterval: 20 * time.Millisecond, Logf: t.Logf})
	addr := startFrontEnd(t, r)

	srv := NewServer(r)
	if srv.Router() != r {
		t.Fatal("Server.Router() does not expose the wrapped router")
	}

	// Wrong magic (first byte sniffs as binary, rest does not match): a
	// plain-text diagnostic, then the connection closes.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("DARTWIRE9")); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil || !strings.Contains(line, "bad protocol magic") {
		t.Fatalf("bad magic answered %q, %v", line, err)
	}
	conn.Close()

	// Good handshake. An access to a session nobody opened must come back
	// as an error frame carrying the request's tag — and the connection
	// must survive it.
	conn, err = net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(serve.WireMagic)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	magic := make([]byte, len(serve.WireMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != serve.WireMagic {
		t.Fatalf("handshake echoed %q, %v", magic, err)
	}
	fr := serve.NewFrameReader(br)

	if _, err := conn.Write(serve.AppendAccessRequest(nil, 77, "ghost", sessionTrace(1, 1))); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := fr.Next()
	if err != nil || kind != serve.FrameError {
		t.Fatalf("unknown session answered kind 0x%02x, %v", kind, err)
	}
	if !strings.Contains(string(payload), "unknown session") {
		t.Fatalf("error frame %q lacks the cause", payload)
	}

	// Still alive: a stats control frame round-trips on the same conn.
	if _, err := conn.Write(rawFrame(serve.FrameControl, []byte(`{"op":"stats"}`))); err != nil {
		t.Fatal(err)
	}
	kind, payload, err = fr.Next()
	if err != nil || kind != serve.FrameControlReply {
		t.Fatalf("stats after an error frame answered kind 0x%02x, %v", kind, err)
	}
	if !strings.Contains(string(payload), `"backends"`) {
		t.Fatalf("routed stats reply %q lacks the backends array", payload)
	}

	// A control frame that is not JSON: tag-0 error frame, then hang-up.
	if _, err := conn.Write(rawFrame(serve.FrameControl, []byte(`{"op":`))); err != nil {
		t.Fatal(err)
	}
	kind, payload, err = fr.Next()
	if err != nil || kind != serve.FrameError {
		t.Fatalf("corrupt control frame answered kind 0x%02x, %v", kind, err)
	}
	if !strings.Contains(string(payload), "bad control frame") {
		t.Fatalf("corrupt-control error %q lacks the cause", payload)
	}
	if _, _, err := fr.Next(); err == nil {
		t.Fatal("connection survived a corrupt control frame")
	}
}

// TestRoutedCloseSessionErrors: closing a session that was never opened (or
// was already closed) is an application error, not a retry storm.
func TestRoutedCloseSessionErrors(t *testing.T) {
	_, r := startCluster(t, 2, Config{HealthInterval: 20 * time.Millisecond, Logf: t.Logf})
	if _, err := r.CloseSession("never-opened"); err == nil ||
		!strings.Contains(err.Error(), "unknown session") {
		t.Fatalf("closing an unopened session returned %v", err)
	}
	if err := r.OpenSession("once", serve.SessionOptions{Prefetcher: "stride", Degree: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Access("once", sessionTrace(3, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.CloseSession("once"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.CloseSession("once"); err == nil ||
		!strings.Contains(err.Error(), "unknown session") {
		t.Fatalf("double close returned %v", err)
	}
}

// TestControlVerbDispatch pins the router's non-hot verb table: read verbs
// forward to the first healthy backend (skipping ejected ones), mutating
// verbs fan to all and refuse to half-apply, hot verbs in control frames
// are rejected, and unknown ops name themselves.
func TestControlVerbDispatch(t *testing.T) {
	logf, health := watchHealth(t)
	bs, r := startCluster(t, 2, Config{HealthInterval: 20 * time.Millisecond, Logf: logf})

	// No tiers are configured on the test backends, so the forwarded verb
	// answers with the backend's own error — proof it reached a shard.
	if rep := r.Control(serve.Request{Op: "classes"}, nil); rep.OK ||
		!strings.Contains(rep.Err, "no online learner") {
		t.Fatalf("classes via firstHealthy returned %+v", rep)
	}
	// No online tiers are configured, so a swap must fail on the first
	// backend and surface which shard refused — not half-apply.
	rep := r.Control(serve.Request{Op: "swap", Class: "online"}, nil)
	if rep.OK || !strings.Contains(rep.Err, "route: backend") {
		t.Fatalf("swap on tier-less backends returned %+v", rep)
	}
	if rep := r.Control(serve.Request{Op: "access"}, nil); rep.OK ||
		!strings.Contains(rep.Err, "hot verb in a control frame") {
		t.Fatalf("hot verb in control frame returned %+v", rep)
	}
	if rep := r.Control(serve.Request{Op: "frobnicate"}, nil); rep.OK ||
		!strings.Contains(rep.Err, "unknown op") {
		t.Fatalf("unknown op returned %+v", rep)
	}

	// Eject one backend: read verbs must skip it and still answer.
	bs[0].kill()
	awaitHealth(t, health, "backend b0 ejected")
	if rep := r.Control(serve.Request{Op: "classes"}, nil); rep.OK ||
		!strings.Contains(rep.Err, "no online learner") {
		t.Fatalf("classes with one ejected backend returned %+v", rep)
	}
	if rep := r.Control(serve.Request{Op: "model", Class: "nope"}, nil); rep.OK {
		t.Fatal("model for an unconfigured class reported OK")
	}
}

// TestVerbTableRoutes adds rows to a copy of serve.Verbs — new names that
// borrow an existing verb's daemon handler — and shows that the router
// answers each by its Route alone, with no code in this package naming them,
// while the backends answer them through the same table.
func TestVerbTableRoutes(t *testing.T) {
	row := func(name, like string, route serve.Route) serve.Verb {
		v, ok := serve.Verbs.Lookup(like)
		if !ok {
			t.Fatalf("no %q row in serve.Verbs", like)
		}
		v.Name, v.Route = name, route
		return v
	}
	saved := serve.Verbs
	// Registered before the cluster so it runs after the cluster's own
	// cleanups have stopped every goroutine that reads the table.
	t.Cleanup(func() { serve.Verbs = saved })
	serve.Verbs = append(slices.Clone(saved),
		row("census-one", "classes", serve.RouteOne),
		row("census-all", "classes", serve.RouteAll),
		row("census-merge", "stats", serve.RouteMerge),
		row("census-open", "open", serve.RouteSession),
		row("census-hot", "stats", serve.RouteHot))
	_, r := startCluster(t, 2, Config{HealthInterval: -1})

	// One: the first backend's own refusal, verbatim.
	if rep := r.Control(serve.Request{Op: "census-one"}, nil); rep.OK ||
		!strings.Contains(rep.Err, "no online learner") || strings.Contains(rep.Err, "route:") {
		t.Fatalf("census-one returned %+v", rep)
	}
	// All: the same refusal fails the fan-out, naming the shard.
	if rep := r.Control(serve.Request{Op: "census-all"}, nil); rep.OK ||
		!strings.Contains(rep.Err, "route: backend b0:") {
		t.Fatalf("census-all returned %+v", rep)
	}
	// Merge: every backend answered the new verb, and the rows merged.
	rep := r.Control(serve.Request{Op: "census-merge"}, nil)
	if !rep.OK || rep.Stats == nil || len(rep.Stats.Backends) != 2 {
		t.Fatalf("census-merge returned %+v", rep)
	}
	for _, b := range rep.Stats.Backends {
		if b.Err != "" {
			t.Fatalf("census-merge: backend %s answered %q", b.Name, b.Err)
		}
	}
	// Session: the routing table opens it, and it serves.
	opened := map[string]struct{}{}
	rep = r.Control(serve.Request{Op: "census-open", Session: "s", Prefetcher: "stride", Degree: 4}, opened)
	if _, tracked := opened["s"]; !rep.OK || !tracked {
		t.Fatalf("census-open returned %+v, opened %v", rep, opened)
	}
	if _, err := r.Access("s", sessionTrace(5, 8)); err != nil {
		t.Fatal(err)
	}
	// Hot: refused in a control frame.
	if rep := r.Control(serve.Request{Op: "census-hot"}, nil); rep.OK ||
		!strings.Contains(rep.Err, "hot verb in a control frame") {
		t.Fatalf("census-hot returned %+v", rep)
	}
}
