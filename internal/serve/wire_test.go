package serve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"

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

// wireHandshake dials addr raw and completes the DARTWIRE1 banner exchange.
func wireHandshake(t *testing.T, addr string) (*net.TCPConn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte(wireMagic)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	var echo [len(wireMagic)]byte
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
	valid := appendWireRequest(nil, frameBatch, 1, "s", recs)

	reframe := func(kind byte, payload []byte) []byte {
		f := beginFrame(nil, kind)
		f = append(f, payload...)
		return finishFrame(f, 0)
	}
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
			bytes: reframe(frameAccess, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}),
			want:  "varint",
		},
		{
			name:  "batch-count-overflow",
			bytes: reframe(frameBatch, append(appendUvarints(nil, 1, 1, 's'), appendUvarints(nil, 1<<30)...)),
			want:  "count",
		},
		{
			name:  "unknown-kind",
			bytes: reframe(0x42, []byte{1}),
			want:  "unknown wire frame kind",
		},
		{
			name:  "trailing-bytes",
			bytes: reframe(frameBatch, append(append([]byte(nil), valid[wireHeaderLen:]...), 0, 0, 0)),
			want:  "trailing",
		},
		{
			name:  "bad-control-json",
			bytes: reframe(frameControl, []byte("not json")),
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
			rd := wireReader{br: br}
			kind, p, err := rd.next()
			if err != nil {
				t.Fatalf("no error frame before close: %v", err)
			}
			if kind != frameError {
				t.Fatalf("reply frame kind 0x%02x, want error frame", kind)
			}
			if _, werr := wireErr(p); !strings.Contains(werr.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", werr, tc.want)
			}
			// The connection must be closed after the error frame.
			if _, _, err := rd.next(); err != io.EOF {
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
	frame := appendWireRequest(nil, frameBatch, 99, "edge", recs)
	var j wireJob
	sid, err := decodeJob(frameBatch, frame[wireHeaderLen:], &j)
	if err != nil {
		t.Fatal(err)
	}
	if string(sid) != "edge" || j.tag != 99 || j.kind != frameBatchReply {
		t.Fatalf("decoded sid=%q tag=%d kind=%#x", sid, j.tag, j.kind)
	}
	if len(j.recs) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(j.recs), len(recs))
	}
	for i := range recs {
		if j.recs[i] != recs[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, j.recs[i], recs[i])
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
	frame := appendWireRequest(nil, frameBatch, 7, "z", recs)
	payload := frame[wireHeaderLen:]
	out := make(chan *wireJob, 1)
	j := &wireJob{out: out}
	step := func() {
		if _, err := decodeJob(frameBatch, payload, j); err != nil {
			t.Fatal(err)
		}
		s.runJob(j)
		<-out
	}
	// Warm up: size the record slice, the reply buffer, the simulator's
	// in-flight map, and the prefetcher's tables.
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
		buf = appendErrorFrame(buf[:0], 3, err)
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
	var j wireJob
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame = appendWireRequest(frame[:0], frameBatch, uint64(i), "codec", recs)
		if _, err := decodeJob(frameBatch, frame[wireHeaderLen:], &j); err != nil {
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
