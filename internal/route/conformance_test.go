package route

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"dart/internal/serve"
)

// frontCase is one input a front end must answer exactly as a daemon does.
type frontCase struct {
	name      string
	handshake bool   // complete the DARTWIRE1 banner exchange first
	bytes     []byte // what the client sends
	keepAlive bool   // the front must answer the probe sent after bytes
}

// probes are sent after each case whose input leaves the stream intact: a
// close of an unknown session, whose error reply is the same on every front.
var (
	jsonProbe   = []byte(`{"op":"close","session":"probe"}` + "\n")
	binaryProbe = rawFrame(serve.FrameControl, []byte(`{"op":"close","session":"probe"}`))
)

// transcript sends tc to the front at addr and returns every byte the front
// answered until it hung up: the handshake echo, the replies, and the
// probe's reply when tc keeps the connection alive.
func transcript(t *testing.T, addr string, tc frontCase) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	in := tc.bytes
	if tc.handshake {
		in = append([]byte(serve.WireMagic), in...)
	}
	if tc.keepAlive {
		probe := jsonProbe
		if tc.handshake {
			probe = binaryProbe
		}
		in = append(in, probe...)
	}
	if _, err := conn.Write(in); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite() // the front hangs up once it reads EOF
	out, err := io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("front at %s never hung up; answered %q", addr, out)
	}
	return out
}

// TestFrontEndConformance sends the same malformed and refused inputs to a
// daemon's front end and a router's, over both protocols, and requires
// byte-identical answers followed by the same hang-up or keep-alive: both
// run serve's connection loops, so no error text or framing decision may
// differ. The binary inputs are TestWireMalformedFrames' corruption matrix.
func TestFrontEndConformance(t *testing.T) {
	daemon := startBackend(t, "daemon").addr
	_, r := startCluster(t, 1, Config{HealthInterval: -1})
	router := startFrontEnd(t, r)

	recs := sessionTrace(11, 4)
	valid := serve.AppendAccessRequest(nil, 1, "s", recs)
	uvarints := func(vals ...uint64) []byte {
		var buf []byte
		for _, v := range vals {
			buf = binary.AppendUvarint(buf, v)
		}
		return buf
	}
	control := func(req string) []byte { return rawFrame(serve.FrameControl, []byte(req)) }
	cases := []frontCase{
		{name: "json/bad-line", bytes: []byte(`{"op":` + "\n"), keepAlive: true},
		{name: "json/unknown-op", bytes: []byte(`{"op":"frobnicate"}` + "\n"), keepAlive: true},
		{name: "json/batch-verb", bytes: []byte(`{"op":"batch","session":"s"}` + "\n"), keepAlive: true},
		{name: "json/ghost-access", bytes: []byte(`{"op":"access","session":"ghost","addr":"0x40"}` + "\n"), keepAlive: true},
		{name: "binary/bad-magic", bytes: []byte("DARTWIRE9")},
		{name: "binary/truncated-frame", handshake: true, bytes: valid[:len(valid)-3]},
		{name: "binary/crc-flip", handshake: true, bytes: func() []byte {
			f := append([]byte(nil), valid...)
			f[len(f)-1] ^= 0x40
			return f
		}()},
		{name: "binary/oversized-length", handshake: true, bytes: func() []byte {
			f := append([]byte(nil), valid[:9]...)
			binary.BigEndian.PutUint32(f[1:], 1<<24+1)
			return f
		}()},
		{name: "binary/garbage-varint", handshake: true,
			bytes: rawFrame(serve.FrameAccess, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})},
		{name: "binary/batch-count-overflow", handshake: true,
			bytes: rawFrame(serve.FrameBatch, append(uvarints(1, 1, 's'), uvarints(1<<30)...))},
		{name: "binary/unknown-kind", handshake: true, bytes: rawFrame(0x42, []byte{1})},
		{name: "binary/trailing-bytes", handshake: true,
			bytes: rawFrame(serve.FrameBatch, append(append([]byte(nil), valid[9:]...), 0, 0, 0))},
		{name: "binary/bad-control-json", handshake: true, bytes: control("not json")},
		{name: "binary/unknown-op", handshake: true, bytes: control(`{"op":"frobnicate"}`), keepAlive: true},
		{name: "binary/batch-in-control", handshake: true, bytes: control(`{"op":"batch","session":"s"}`), keepAlive: true},
		{name: "binary/access-in-control", handshake: true, bytes: control(`{"op":"access","session":"s"}`), keepAlive: true},
		{name: "binary/ghost-access", handshake: true, bytes: serve.AppendAccessRequest(nil, 9, "ghost", recs[:1]), keepAlive: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := transcript(t, daemon, tc)
			got := transcript(t, router, tc)
			if string(got) != string(want) {
				t.Fatalf("router front answered\n%q\nthe daemon front\n%q", got, want)
			}
			if len(want) == 0 {
				t.Fatal("the fronts answered nothing")
			}
			probeReply := `{"ok":false,"error":"serve: unknown session","session":"probe"}`
			if answered := strings.HasSuffix(strings.TrimSuffix(string(want), "\n"), probeReply); answered != tc.keepAlive {
				t.Fatalf("probe answered %v, want %v; transcript %q", answered, tc.keepAlive, want)
			}
		})
	}

	// The serve client classifies a ghost-session access alike on every
	// front and protocol.
	for _, addr := range []string{daemon, router} {
		for _, proto := range []string{"json", "binary"} {
			c, err := serve.Connect(addr, serve.WithProtocol(proto))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Access("ghost", recs[0]); !errors.Is(err, serve.ErrUnknownSession) {
				t.Errorf("%s access to a ghost session at %s returned %v, want serve.ErrUnknownSession", proto, addr, err)
			}
			c.Close()
		}
	}
}
