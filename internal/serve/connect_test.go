package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"dart/internal/trace"
)

// TestConnectOptions pins the single-constructor surface: Connect defaults to
// the binary protocol with batch 64, the options change each knob, and the
// deprecated wrappers still resolve to working clients.
func TestConnectOptions(t *testing.T) {
	addr, _ := startWireServer(t, Config{SimCfg: smallSimCfg()})

	c, err := Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.binary || c.BatchSize() != 64 {
		t.Fatalf("defaults: binary=%v batch=%d, want binary batch 64", c.binary, c.BatchSize())
	}
	if err := c.Open("opt", "stride", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Access("opt", trace.Record{InstrID: 1, Addr: 0x40, IsLoad: true}); err != nil {
		t.Fatal(err)
	}

	j, err := Connect(addr, WithProtocol("json"), WithBatchSize(7), WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.binary || j.BatchSize() != 7 || j.timeout != 5*time.Second {
		t.Fatalf("options not applied: %+v", j)
	}
	if err := j.Open("opt2", "stride", 4); err != nil {
		t.Fatal(err)
	}

	if _, err := Connect(addr, WithProtocol("smoke-signals")); err == nil {
		t.Fatal("unknown protocol accepted")
	}

	// A caller that brings its own connection negotiates the same way.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	n, err := newClient(conn, clientOptions{proto: "binary", batch: 64})
	if err != nil {
		t.Fatal(err)
	}
	n.Close()
}

// TestConnectTimeoutPoisons: a server that goes silent mid-call trips the
// WithTimeout deadline, and the timeout — not a generic failure — is the
// sticky cause every later call reports.
func TestConnectTimeoutPoisons(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, len(WireMagic))
		if _, err := io.ReadFull(conn, buf); err != nil {
			return
		}
		conn.Write(buf)           // accept the handshake…
		io.Copy(io.Discard, conn) // …then swallow every request silently
	}()

	c, err := Connect(ln.Addr().String(), WithTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Access("s", trace.Record{InstrID: 1, Addr: 0x40})
	var nerr net.Error
	if err == nil || !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("silent server returned %v, want a timeout", err)
	}
	_, err = c.Access("s", trace.Record{InstrID: 2, Addr: 0x80})
	if err == nil || !strings.Contains(err.Error(), "connection dead") || !errors.As(err, &nerr) {
		t.Fatalf("post-timeout call returned %v, want sticky dead-connection timeout", err)
	}
}

// TestClientSurfacesDeathCause is the read-loop regression test: a backend
// killed mid-call must surface the original cause — an unexpected EOF while a
// reply was owed — on the failing call AND on every subsequent call, never a
// bare io.EOF and never a cause-free generic error.
func TestClientSurfacesDeathCause(t *testing.T) {
	for _, proto := range []string{"binary", "json"} {
		t.Run(proto, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			// A fake backend: answer the open verb, then die mid-access
			// without replying.
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				ok, _ := json.Marshal(Reply{OK: true})
				if proto == "binary" {
					br := bufio.NewReader(conn)
					magic := make([]byte, len(WireMagic))
					if _, err := io.ReadFull(br, magic); err != nil {
						return
					}
					conn.Write(magic)
					fr := NewFrameReader(br)
					if _, _, err := fr.Next(); err != nil { // open
						return
					}
					conn.Write(AppendControlReply(nil, ok))
					fr.Next() // the access frame: kill the conn instead of answering
					return
				}
				sc := bufio.NewScanner(conn)
				if !sc.Scan() { // open
					return
				}
				conn.Write(append(ok, '\n'))
				sc.Scan() // the access line: kill the conn instead of answering
			}()

			c, err := Connect(ln.Addr().String(), WithProtocol(proto))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.Open("victim", "stride", 4); err != nil {
				t.Fatal(err)
			}
			_, err = c.Access("victim", trace.Record{InstrID: 1, Addr: 0x40, IsLoad: true})
			if err == nil {
				t.Fatal("access succeeded against a killed backend")
			}
			if err == io.EOF || !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("mid-call kill reported %v, want an io.ErrUnexpectedEOF wrap", err)
			}
			if !strings.Contains(err.Error(), "awaiting reply") {
				t.Fatalf("mid-call kill reported %q without the owed-a-reply cause", err)
			}

			// Every call after the death keeps reporting the original cause.
			for i := 0; i < 2; i++ {
				_, err2 := c.Access("victim", trace.Record{InstrID: 2, Addr: 0x80})
				if err2 == nil || !strings.Contains(err2.Error(), "connection dead") ||
					!errors.Is(err2, io.ErrUnexpectedEOF) {
					t.Fatalf("post-death call %d returned %v, want sticky dead-connection error wrapping the cause", i, err2)
				}
			}
			if _, err := c.Do(Request{Op: "stats"}); err == nil || !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("post-death control verb returned %v, want the sticky cause", err)
			}
		})
	}
}

// TestClientClosePoisons: using a client after its own Close reports the
// closed-client cause, not a confusing transport error.
func TestClientClosePoisons(t *testing.T) {
	addr, _ := startWireServer(t, Config{SimCfg: smallSimCfg()})
	c, err := Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	if c.Broken() != nil {
		t.Fatalf("fresh client reports Broken() = %v", c.Broken())
	}
	c.Close()
	if !errors.Is(c.Broken(), errClientClosed) {
		t.Fatalf("post-Close Broken() = %v, want errClientClosed", c.Broken())
	}
	if _, err := c.Access("x", trace.Record{InstrID: 1}); !errors.Is(err, errClientClosed) {
		t.Fatalf("post-Close call returned %v, want errClientClosed", err)
	}
}

// TestClientDecodesSessionErrors: the interned session errors a server sends
// come back from the client as the sentinels themselves, over both
// protocols and both reply shapes (error frame, ok:false reply), so callers
// classify remote failures with errors.Is.
func TestClientDecodesSessionErrors(t *testing.T) {
	addr, srv := startWireServer(t, Config{SimCfg: smallSimCfg()})
	rec := trace.Record{InstrID: 1, Addr: 0x40, IsLoad: true}
	for _, proto := range []string{"binary", "json"} {
		c, err := Connect(addr, WithProtocol(proto))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Access("ghost", rec); !errors.Is(err, ErrUnknownSession) {
			t.Fatalf("%s: access to an unknown session returned %v", proto, err)
		}
		if _, err := c.CloseSession("ghost"); !errors.Is(err, ErrUnknownSession) {
			t.Fatalf("%s: close of an unknown session returned %v", proto, err)
		}
		// Hold a live session in the window between Close marking it closed
		// and removing it from the map.
		id := "closing-" + proto
		if err := c.Open(id, "stride", 4); err != nil {
			t.Fatal(err)
		}
		s, err := srv.engine.lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		s.sendMu.Lock()
		s.closed = true
		s.sendMu.Unlock()
		_, err = c.Access(id, rec)
		s.sendMu.Lock()
		s.closed = false
		s.sendMu.Unlock()
		if !errors.Is(err, ErrSessionClosed) {
			t.Fatalf("%s: access to a closing session returned %v", proto, err)
		}
		if err := c.Open(id+"x", "no-such-prefetcher", 4); err == nil ||
			errors.Is(err, ErrUnknownSession) || errors.Is(err, ErrSessionClosed) {
			t.Fatalf("%s: unrelated failure decoded as %v", proto, err)
		}
	}
}
