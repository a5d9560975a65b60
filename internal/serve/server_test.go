package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"dart/internal/prefetch"
	"dart/internal/sim"
)

// startServer spins up a server on a unix socket and returns a connected
// client plus a shutdown func.
func startServer(t *testing.T, cfg Config) (net.Conn, *Server, func()) {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "dart.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(NewEngine(cfg))
	if srv.Engine() == nil {
		t.Fatal("server lost its engine")
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		if err := srv.Serve(ln); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	return conn, srv, func() {
		conn.Close()
		srv.Shutdown()
		<-serveDone
	}
}

// rpc sends one request and reads one reply line.
func rpc(t *testing.T, conn net.Conn, br *bufio.Reader, req Request) Reply {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(append(b, '\n')); err != nil {
		t.Fatal(err)
	}
	return readReply(t, br)
}

func readReply(t *testing.T, br *bufio.Reader) Reply {
	t.Helper()
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("read reply: %v", err)
	}
	var rep Reply
	if err := json.Unmarshal(line, &rep); err != nil {
		t.Fatalf("bad reply %q: %v", line, err)
	}
	return rep
}

// TestWireProtocolEndToEnd drives open → access* → stats → close over a real
// socket and checks the close result is bit-identical to the offline sim.
func TestWireProtocolEndToEnd(t *testing.T) {
	conn, _, stop := startServer(t, Config{SimCfg: smallSimCfg()})
	defer stop()
	br := bufio.NewReader(conn)

	if rep := rpc(t, conn, br, Request{Op: "open", Session: "s1", Prefetcher: "stride", Degree: 4}); !rep.OK {
		t.Fatalf("open failed: %s", rep.Err)
	}
	recs := sessionTrace(77, 400)
	for i, rec := range recs {
		rep := rpc(t, conn, br, Request{
			Op: "access", Session: "s1",
			InstrID: rec.InstrID, PC: Hex64(rec.PC), Addr: Hex64(rec.Addr), IsLoad: rec.IsLoad,
		})
		if !rep.OK {
			t.Fatalf("access %d failed: %s", i, rep.Err)
		}
		if rep.Seq != uint64(i+1) {
			t.Fatalf("access %d got seq %d", i, rep.Seq)
		}
	}
	st := rpc(t, conn, br, Request{Op: "stats"})
	if !st.OK || st.Stats == nil || st.Stats.Sessions != 1 || st.Stats.Accepted != 400 {
		t.Fatalf("stats reply %+v", st.Stats)
	}
	rep := rpc(t, conn, br, Request{Op: "close", Session: "s1"})
	if !rep.OK || rep.Result == nil {
		t.Fatalf("close failed: %s", rep.Err)
	}
	want := sim.Run(recs, prefetch.NewStride(4), smallSimCfg())
	if *rep.Result != want {
		t.Fatalf("served result differs from offline:\n got %+v\nwant %+v", *rep.Result, want)
	}
}

// TestWirePipelining sends a burst of access lines without waiting and then
// collects the replies: they must come back in order with no loss.
func TestWirePipelining(t *testing.T) {
	conn, _, stop := startServer(t, Config{SimCfg: smallSimCfg(), QueueDepth: 8})
	defer stop()
	br := bufio.NewReader(conn)
	if rep := rpc(t, conn, br, Request{Op: "open", Session: "p", Prefetcher: "bo", Degree: 2}); !rep.OK {
		t.Fatal(rep.Err)
	}
	recs := sessionTrace(5, 300)
	errc := make(chan error, 1)
	go func() {
		w := bufio.NewWriter(conn)
		for _, rec := range recs {
			b, _ := json.Marshal(Request{
				Op: "access", Session: "p",
				InstrID: rec.InstrID, PC: Hex64(rec.PC), Addr: Hex64(rec.Addr), IsLoad: rec.IsLoad,
			})
			if _, err := w.Write(append(b, '\n')); err != nil {
				errc <- err
				return
			}
		}
		errc <- w.Flush()
	}()
	for i := range recs {
		rep := readReply(t, br)
		if !rep.OK || rep.Seq != uint64(i+1) {
			t.Fatalf("pipelined reply %d: %+v", i, rep)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestWireErrors exercises the protocol failure paths.
func TestWireErrors(t *testing.T) {
	conn, _, stop := startServer(t, Config{SimCfg: smallSimCfg()})
	defer stop()
	br := bufio.NewReader(conn)

	if _, err := conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	if rep := readReply(t, br); rep.OK {
		t.Fatal("malformed line accepted")
	}
	if rep := rpc(t, conn, br, Request{Op: "teleport"}); rep.OK {
		t.Fatal("unknown op accepted")
	}
	if rep := rpc(t, conn, br, Request{Op: "access", Session: "nope"}); rep.OK {
		t.Fatal("access to unknown session accepted")
	}
	if rep := rpc(t, conn, br, Request{Op: "open", Session: "e", Prefetcher: "bogus"}); rep.OK {
		t.Fatal("bogus prefetcher accepted")
	}
}

// TestOpenRejectsBadSimGeometry: a JSON open whose "sim" config has a cache
// shape the simulator cannot build gets an error reply, and the server keeps
// serving: a valid open of the same id on the same connection succeeds.
func TestOpenRejectsBadSimGeometry(t *testing.T) {
	conn, _, stop := startServer(t, Config{SimCfg: smallSimCfg()})
	defer stop()
	br := bufio.NewReader(conn)
	shapes := map[string]func(*sim.Config){
		"15 LLC sets":        func(c *sim.Config) { c.LLCBlocks, c.LLCWays = 60, 4 },
		"ways not dividing":  func(c *sim.Config) { c.LLCBlocks, c.LLCWays = 62, 4 },
		"17 LLC ways":        func(c *sim.Config) { c.LLCBlocks, c.LLCWays = 17*256, 17 },
		"oversized LLC":      func(c *sim.Config) { c.LLCBlocks = 2 * sim.MaxCacheBlocks },
		"15 L2 sets":         func(c *sim.Config) { c.L2Blocks, c.L2Ways, c.L2HitLatency = 60, 4, 14 },
		"17 L2 ways":         func(c *sim.Config) { c.L2Blocks, c.L2Ways, c.L2HitLatency = 17*64, 17, 14 },
		"oversized L2":       func(c *sim.Config) { c.L2Blocks, c.L2Ways, c.L2HitLatency = 2*sim.MaxCacheBlocks, 8, 14 },
		"L2 ways not divide": func(c *sim.Config) { c.L2Blocks, c.L2Ways, c.L2HitLatency = 100, 8, 14 },
	}
	for name, bad := range shapes {
		cfg := smallSimCfg()
		bad(&cfg)
		if rep := rpc(t, conn, br, Request{Op: "open", Session: "g", Prefetcher: "stride", Sim: &cfg}); rep.OK || rep.Err == "" {
			t.Errorf("%s: open replied %+v, want an error", name, rep)
		}
	}
	cfg := smallSimCfg()
	if rep := rpc(t, conn, br, Request{Op: "open", Session: "g", Prefetcher: "stride", Sim: &cfg}); !rep.OK {
		t.Fatalf("valid open after rejected ones: %s", rep.Err)
	}
}

// TestShutdownDrainsSessions: sessions on a still-connected client when the
// server shuts down are drained and their results returned.
func TestShutdownDrainsSessions(t *testing.T) {
	conn, srv, _ := startServer(t, Config{SimCfg: smallSimCfg()})
	br := bufio.NewReader(conn)
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("s%d", i)
		if rep := rpc(t, conn, br, Request{Op: "open", Session: id, Prefetcher: "stride"}); !rep.OK {
			t.Fatal(rep.Err)
		}
		for _, rec := range sessionTrace(int64(i), 100) {
			rep := rpc(t, conn, br, Request{
				Op: "access", Session: id,
				InstrID: rec.InstrID, PC: Hex64(rec.PC), Addr: Hex64(rec.Addr),
			})
			if !rep.OK {
				t.Fatal(rep.Err)
			}
		}
	}
	results := srv.Shutdown()
	if len(results) != 3 {
		t.Fatalf("shutdown drained %d sessions, want 3", len(results))
	}
	for id, res := range results {
		if res.Accesses != 100 {
			t.Fatalf("session %s drained with %d accesses", id, res.Accesses)
		}
	}
}

// closeSpy is a daemon's Front that reports every session it closes.
type closeSpy struct {
	engineFront
	closed chan<- string
}

func (f closeSpy) CloseSession(id string) (sim.Result, error) {
	res, err := f.engineFront.CloseSession(id)
	f.closed <- id
	return res, err
}

// TestDisconnectReclaimsSessions: a client that drops without closing its
// sessions must not wedge their ids — a reconnecting client can reopen them.
func TestDisconnectReclaimsSessions(t *testing.T) {
	e := NewEngine(Config{SimCfg: smallSimCfg()})
	ln, err := net.Listen("unix", filepath.Join(t.TempDir(), "dart.sock"))
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan string, 1)
	var conns Acceptor
	go conns.Serve(ln, closeSpy{engineFront{e}, closed})
	conn, err := net.Dial("unix", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	if rep := rpc(t, conn, br, Request{Op: "open", Session: "core01", Prefetcher: "stride"}); !rep.OK {
		t.Fatal(rep.Err)
	}
	if rep := rpc(t, conn, br, Request{
		Op: "access", Session: "core01", InstrID: 1, Addr: Hex64(1 << 20),
	}); !rep.OK {
		t.Fatal(rep.Err)
	}
	conn.Close() // crash without "close"

	// The connection loop notices the disconnect and reclaims the orphan,
	// after which the session id is available again.
	select {
	case id := <-closed:
		if id != "core01" {
			t.Fatalf("reclaimed %q, want core01", id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("session not reclaimed after disconnect")
	}
	if err := e.Open("core01", "bo", 2); err != nil {
		t.Fatalf("reclaimed id cannot be reopened: %v", err)
	}
	conns.Stop()
	if res := e.Drain(); len(res) != 1 {
		t.Fatalf("drain collected %d sessions, want the 1 reopened", len(res))
	}
}

func TestHex64RoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
	}{
		{`"0x10000040"`, 0x10000040},
		{`"0X1F"`, 0x1F},
		{`"255"`, 255},
		{`1024`, 1024},
		{`""`, 0},
		{`"0xffffffffffffffff"`, ^uint64(0)},
	}
	for _, c := range cases {
		var h Hex64
		if err := json.Unmarshal([]byte(c.in), &h); err != nil {
			t.Fatalf("unmarshal %s: %v", c.in, err)
		}
		if uint64(h) != c.want {
			t.Fatalf("unmarshal %s = %d, want %d", c.in, h, c.want)
		}
	}
	// Marshal → unmarshal survives the top bit (the reason Hex64 exists).
	b, err := json.Marshal(Hex64(1 << 62))
	if err != nil {
		t.Fatal(err)
	}
	var back Hex64
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != 1<<62 {
		t.Fatalf("round trip lost precision: %d", back)
	}
	for _, bad := range []string{`"0xzz"`, `"12x"`, `true`} {
		var h Hex64
		if err := json.Unmarshal([]byte(bad), &h); err == nil {
			t.Fatalf("accepted %s", bad)
		}
	}
}
