package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"weak"

	"dart/internal/prefetch"
	"dart/internal/sim"
	"dart/internal/trace"
)

// startWireServer spins up a dual-protocol server on a loopback TCP listener
// and returns its address.
func startWireServer(t testing.TB, cfg Config) (string, *Server) {
	t.Helper()
	srv := NewServer(NewEngine(cfg))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Shutdown() })
	return ln.Addr().String(), srv
}

// TestBinaryProtocolEndToEnd drives the DARTWIRE1 protocol through a real
// socket — handshake, open, access and batch hot frames, control verbs,
// close — and checks every per-access reply against a lockstep local
// simulator plus the final result against the offline run.
func TestBinaryProtocolEndToEnd(t *testing.T) {
	addr, _ := startWireServer(t, Config{SimCfg: smallSimCfg()})
	c, err := Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Open("b1", "stride", 4); err != nil {
		t.Fatal(err)
	}

	recs := sessionTrace(42, 1000)
	local := sim.NewSim(prefetch.NewStride(4), smallSimCfg())
	var seq uint64
	for lo := 0; lo < len(recs); lo += 33 { // odd batch size: exercises both frame kinds
		hi := lo + 33
		if hi > len(recs) {
			hi = len(recs)
		}
		res, err := c.AccessBatch("b1", recs[lo:hi])
		if err != nil {
			t.Fatalf("batch at %d: %v", lo, err)
		}
		if len(res) != hi-lo {
			t.Fatalf("batch at %d returned %d results, want %d", lo, len(res), hi-lo)
		}
		for i, ar := range res {
			seq++
			st := local.Step(recs[lo+i])
			if ar.Seq != seq || ar.Hit != st.Hit || ar.Late != st.Late {
				t.Fatalf("access %d: wire {seq %d hit %v late %v}, local {seq %d hit %v late %v}",
					lo+i, ar.Seq, ar.Hit, ar.Late, seq, st.Hit, st.Late)
			}
			if len(ar.Prefetches) != len(st.Prefetches) {
				t.Fatalf("access %d: wire issued %v, local %v", lo+i, ar.Prefetches, st.Prefetches)
			}
			for k := range ar.Prefetches {
				if ar.Prefetches[k] != st.Prefetches[k] {
					t.Fatalf("access %d: wire issued %v, local %v", lo+i, ar.Prefetches, st.Prefetches)
				}
			}
		}
	}

	// Control verbs ride JSON-in-control-frames over the same connection.
	rep, err := c.Do(Request{Op: "stats"})
	if err != nil || !rep.OK || rep.Stats == nil {
		t.Fatalf("stats over binary: %+v, %v", rep, err)
	}
	if rep.Stats.Accepted != uint64(len(recs)) || rep.Stats.Sessions != 1 {
		t.Fatalf("stats accepted %d sessions %d, want %d/1", rep.Stats.Accepted, rep.Stats.Sessions, len(recs))
	}
	if rep, err := c.Do(Request{Op: "teleport"}); err != nil || rep.OK {
		t.Fatalf("unknown op over binary: %+v, %v", rep, err)
	}

	res, err := c.CloseSession("b1")
	if err != nil {
		t.Fatal(err)
	}
	want := sim.Run(recs, prefetch.NewStride(4), smallSimCfg())
	if res != want {
		t.Fatalf("wire result differs from offline:\n got %+v\nwant %+v", res, want)
	}
}

// TestBinaryUnknownSessionKeepsConnection: an application-level error (access
// to a session that does not exist) answers with an error frame but must not
// kill the connection — only framing corruption does that.
func TestBinaryUnknownSessionKeepsConnection(t *testing.T) {
	addr, _ := startWireServer(t, Config{SimCfg: smallSimCfg()})
	c, err := Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	recs := sessionTrace(7, 4)
	if _, err := c.AccessBatch("ghost", recs); err == nil {
		t.Fatal("access to unknown session succeeded")
	} else if !strings.Contains(err.Error(), "unknown session") {
		t.Fatalf("unexpected error: %v", err)
	}
	// Same connection still works.
	if err := c.Open("alive", "stride", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AccessBatch("alive", recs); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CloseSession("alive"); err != nil {
		t.Fatal(err)
	}
}

// TestClosedSessionCollectable: closing a session over a binary connection
// that stays open must release it — nothing per connection may pin a closed
// session's simulator — and reopening the id on that connection serves the
// new session.
func TestClosedSessionCollectable(t *testing.T) {
	addr, srv := startWireServer(t, Config{SimCfg: smallSimCfg()})
	c, err := Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	recs := sessionTrace(21, 128)
	if err := c.Open("w", "stride", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AccessBatch("w", recs); err != nil {
		t.Fatal(err)
	}
	wp := func() weak.Pointer[session] {
		s, err := srv.engine.lookup("w")
		if err != nil {
			t.Fatal(err)
		}
		return weak.Make(s)
	}()
	if _, err := c.CloseSession("w"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5 && wp.Value() != nil; i++ {
		runtime.GC()
	}
	if wp.Value() != nil {
		t.Fatal("a closed session stays reachable while its binary connection is open")
	}

	if err := c.Open("w", "stride", 4); err != nil {
		t.Fatal(err)
	}
	res, err := c.AccessBatch("w", recs[:8])
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Seq != 1 {
		t.Fatalf("reopened session answered seq %d, want a fresh session's 1", res[0].Seq)
	}
	if _, err := c.CloseSession("w"); err != nil {
		t.Fatal(err)
	}
}

// wireHandshake dials addr raw and completes the DARTWIRE1 banner exchange.
func wireHandshake(t *testing.T, addr string) (*net.TCPConn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte(WireMagic)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	var echo [len(WireMagic)]byte
	if _, err := io.ReadFull(br, echo[:]); err != nil {
		t.Fatalf("handshake echo: %v", err)
	}
	return conn.(*net.TCPConn), br
}

// TestWireMalformedFrames is the corruption matrix: every class of broken
// frame must draw an error frame (when the server can still attribute one),
// kill only that connection — loudly, never with a panic — and leave the
// server accepting fresh connections.
func TestWireMalformedFrames(t *testing.T) {
	addr, _ := startWireServer(t, Config{SimCfg: smallSimCfg()})
	recs := sessionTrace(11, 4)
	valid := AppendAccessRequest(nil, 1, "s", recs)
	reframe := func(kind byte, payload []byte) []byte { return appendFrame(nil, kind, payload) }
	cases := []struct {
		name  string
		bytes []byte
		want  string // substring of the error frame's message
	}{
		{
			name:  "truncated-frame",
			bytes: valid[:len(valid)-3],
			want:  "truncated",
		},
		{
			name: "crc-flip",
			bytes: func() []byte {
				f := append([]byte(nil), valid...)
				f[len(f)-1] ^= 0x40 // flip a payload byte, keep the header CRC
				return f
			}(),
			want: "CRC mismatch",
		},
		{
			name: "oversized-length",
			bytes: func() []byte {
				f := append([]byte(nil), valid[:wireHeaderLen]...)
				binary.BigEndian.PutUint32(f[1:], maxWirePayload+1)
				return f
			}(),
			want: "max",
		},
		{
			name:  "garbage-varint",
			bytes: reframe(FrameAccess, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}),
			want:  "varint",
		},
		{
			name:  "batch-count-overflow",
			bytes: reframe(FrameBatch, append(appendUvarints(nil, 1, 1, 's'), appendUvarints(nil, 1<<30)...)),
			want:  "count",
		},
		{
			name:  "unknown-kind",
			bytes: reframe(0x42, []byte{1}),
			want:  "unknown wire frame kind",
		},
		{
			name:  "trailing-bytes",
			bytes: reframe(FrameBatch, append(append([]byte(nil), valid[wireHeaderLen:]...), 0, 0, 0)),
			want:  "trailing",
		},
		{
			name:  "bad-control-json",
			bytes: reframe(FrameControl, []byte("not json")),
			want:  "bad control frame",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn, br := wireHandshake(t, addr)
			defer conn.Close()
			if _, err := conn.Write(tc.bytes); err != nil {
				t.Fatal(err)
			}
			conn.CloseWrite() // flush truncations through to the reader
			rd := NewFrameReader(br)
			kind, p, err := rd.Next()
			if err != nil {
				t.Fatalf("no error frame before close: %v", err)
			}
			if kind != FrameError {
				t.Fatalf("reply frame kind 0x%02x, want error frame", kind)
			}
			if _, werr := wireErr(p); !strings.Contains(werr.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", werr, tc.want)
			}
			// The connection must be closed after the error frame.
			if _, _, err := rd.Next(); err != io.EOF {
				t.Fatalf("connection still open after corruption: %v", err)
			}
		})
	}

	// A client that opens with a wrong 'D'-prefixed banner gets a plain-text
	// rejection instead of a frame (it never completed the handshake).
	t.Run("bad-magic", func(t *testing.T) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte("DARTWIRE9")); err != nil {
			t.Fatal(err)
		}
		line, err := bufio.NewReader(conn).ReadString('\n')
		if err != nil || !strings.Contains(line, "bad protocol magic") {
			t.Fatalf("banner rejection %q, %v", line, err)
		}
	})

	// After every corrupted connection, the server must still serve.
	c, err := Connect(addr)
	if err != nil {
		t.Fatalf("server no longer accepting after corrupt frames: %v", err)
	}
	defer c.Close()
	if err := c.Open("after", "stride", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AccessBatch("after", recs); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CloseSession("after"); err != nil {
		t.Fatal(err)
	}
}

// appendUvarints appends each value as a uvarint (test frame construction).
func appendUvarints(buf []byte, vals ...uint64) []byte {
	for _, v := range vals {
		buf = binary.AppendUvarint(buf, v)
	}
	return buf
}

// TestWireCodecRoundTrip pins the record codec itself, including the uint64
// edges the delta encoding must survive (wraparound, max values).
func TestWireCodecRoundTrip(t *testing.T) {
	recs := []trace.Record{
		{InstrID: 100, PC: 0xdead, Addr: 1 << 40, IsLoad: true},
		{InstrID: 90, PC: 0, Addr: ^uint64(0), IsLoad: false}, // non-monotone id
		{InstrID: ^uint64(0), PC: ^uint64(0), Addr: 0, IsLoad: true},
		{InstrID: 0, PC: 7, Addr: 64, IsLoad: false},
	}
	frame := AppendAccessRequest(nil, 99, "edge", recs)
	if frame[0] != FrameBatch {
		t.Fatalf("%d records framed as kind %#x", len(recs), frame[0])
	}
	tag, sid, got, err := DecodeAccessRequest(FrameBatch, frame[wireHeaderLen:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(sid) != "edge" || tag != 99 {
		t.Fatalf("decoded sid=%q tag=%d", sid, tag)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], recs[i])
		}
	}
}

// TestWireAPIRequestRoundTrip pins the codec a protocol front end builds
// on: AppendAccessRequest frames decode through
// FrameReader + DecodeAccessRequest back into the same records, for both the
// single-access and batch kinds.
func TestWireAPIRequestRoundTrip(t *testing.T) {
	recs := []trace.Record{
		{InstrID: 1, PC: 0x400000, Addr: 0x10000040, IsLoad: true},
		{InstrID: 2, PC: 0x400004, Addr: 0x10000080},
		{InstrID: 3, PC: 0x400008, Addr: 0x100000c0, IsLoad: true},
	}
	for _, n := range []int{1, 3} {
		var buf []byte
		buf = AppendAccessRequest(buf, 7, "sess-1", recs[:n])
		fr := NewFrameReader(bufio.NewReader(bytes.NewReader(buf)))
		kind, payload, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		wantKind := FrameBatch
		if n == 1 {
			wantKind = FrameAccess
		}
		if kind != wantKind {
			t.Fatalf("n=%d framed as kind 0x%02x, want 0x%02x", n, kind, wantKind)
		}
		tag, sid, got, err := DecodeAccessRequest(kind, payload, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tag != 7 || string(sid) != "sess-1" || len(got) != n {
			t.Fatalf("decoded tag=%d sid=%q n=%d, want 7 sess-1 %d", tag, sid, len(got), n)
		}
		for i := range got {
			if got[i] != recs[i] {
				t.Fatalf("record %d round-tripped as %+v, want %+v", i, got[i], recs[i])
			}
		}
	}
	// Wrong kind is rejected, not misparsed.
	if _, _, _, err := DecodeAccessRequest(FrameControl, nil, nil); err == nil {
		t.Fatal("control frame accepted as access request")
	}
}

// TestWireAPIReplyFrames: the reply-side encoders a front-end uses to answer
// clients (results, control, error) all produce frames FrameReader accepts
// with the kinds and tags intact.
func TestWireAPIReplyFrames(t *testing.T) {
	results := []AccessResult{
		{Seq: 41, Hit: true, Version: 3, Prefetches: []uint64{0x400002, 0x400003}},
		{Seq: 42, Late: true},
	}
	var buf []byte
	buf = AppendResultsReply(buf, true, 9, results)
	buf = AppendResultsReply(buf, false, 10, results[:1])
	buf = AppendControlReply(buf, []byte(`{"ok":true}`))
	cause := errors.New("route: no healthy backend")
	buf = AppendErrorReply(buf, 11, cause)

	fr := NewFrameReader(bufio.NewReader(bytes.NewReader(buf)))
	for i, want := range []byte{FrameBatchReply, FrameAccessReply, FrameControlReply, FrameError} {
		kind, payload, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if kind != want {
			t.Fatalf("frame %d has kind 0x%02x, want 0x%02x", i, kind, want)
		}
		if kind == FrameControlReply && string(payload) != `{"ok":true}` {
			t.Fatalf("control reply payload %q", payload)
		}
		if kind == FrameError && !strings.Contains(string(payload), cause.Error()) {
			t.Fatalf("error payload %q lacks the cause", payload)
		}
	}
}

// TestBinaryHotPathZeroAlloc is the tentpole's regression gate in unit-test
// form: the steady-state decode→infer→encode path of a binary batch frame
// must perform zero heap allocations per frame. The session actor is
// constructed by hand (not started) so the whole pipeline runs on the test
// goroutine under testing.AllocsPerRun.
func TestBinaryHotPathZeroAlloc(t *testing.T) {
	pf, err := prefetch.NewRegistry().New("stride", 4)
	if err != nil {
		t.Fatal(err)
	}
	s := &session{id: "z", sim: sim.NewSim(pf, smallSimCfg())}
	recs := sessionTrace(5, 64)
	frame := AppendAccessRequest(nil, 7, "z", recs)
	payload := frame[wireHeaderLen:]
	out := make(chan *wireJob, 1)
	j := &wireJob{out: out, kind: FrameBatch}
	step := func() {
		var err error
		if j.tag, _, j.recs, err = DecodeAccessRequest(FrameBatch, payload, j.recs[:0]); err != nil {
			t.Fatal(err)
		}
		s.runJob(j)
		<-out
	}
	// Warm up: size the record slice, the reply buffer, the simulator's
	// pending prefetch queue, and the prefetcher's tables.
	for i := 0; i < 16; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("binary hot path allocates %.1f times per 64-access frame, want 0", allocs)
	}
}

// TestErrorPathZeroAlloc pins the interned protocol errors: hammering a dead
// session id — engine lookup plus the error frame encode — must not churn
// garbage.
func TestErrorPathZeroAlloc(t *testing.T) {
	e := NewEngine(Config{SimCfg: smallSimCfg()})
	defer e.Drain()
	rec := trace.Record{InstrID: 1, Addr: 1 << 20, IsLoad: true}
	var buf []byte
	step := func() {
		err := e.Submit("nope", rec, nil)
		if !errors.Is(err, ErrUnknownSession) {
			t.Fatalf("Submit to unknown session: %v", err)
		}
		buf = AppendErrorReply(buf[:0], 3, err)
	}
	step() // size the frame buffer
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("unknown-session error path allocates %.1f times per access, want 0", allocs)
	}
}

// BenchmarkWireCodec measures one 64-record batch frame through the encoder
// and decoder back to back — the pure codec cost, no socket. Gated at 0
// allocs/op by cmd/dart-benchcheck.
func BenchmarkWireCodec(b *testing.B) {
	recs := sessionTrace(3, 64)
	var frame []byte
	var got []trace.Record
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame = AppendAccessRequest(frame[:0], uint64(i), "codec", recs)
		if _, _, got, err = DecodeAccessRequest(FrameBatch, frame[wireHeaderLen:], got[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWireAccess measures the full served access path over a loopback
// socket: client encode → server decode → session actor step → reply encode
// → client decode, in frames of 64. ns/op and allocs/op are per access.
func benchWireAccess(b *testing.B, proto string) {
	addr, _ := startWireServer(b, Config{SimCfg: smallSimCfg()})
	c, err := Connect(addr, WithProtocol(proto))
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

// BenchmarkWireAccessBinary is gated by cmd/dart-benchcheck at 0 allocs/op
// and at >= 5x cheaper than BenchmarkWireAccessJSON in the same run.
func BenchmarkWireAccessBinary(b *testing.B) { benchWireAccess(b, "binary") }

// BenchmarkWireAccessJSON is the debug protocol's cost, the other side of
// the binary speedup row.
func BenchmarkWireAccessJSON(b *testing.B) { benchWireAccess(b, "json") }
