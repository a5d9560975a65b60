package route

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"

	"dart/internal/serve"
	"dart/internal/trace"
)

// Server is the router's client-facing front end. It terminates both serving
// wire protocols exactly like a dart-serve daemon — it accepts and
// negotiates through the same serve.Acceptor — and forwards hot verbs
// through the Router's sharding machinery over pooled binary backend
// connections. Client frames are fully decoded and re-encoded, never spliced
// through: a client's framing corruption kills that client's connection
// only, and can never poison a pooled backend connection shared with other
// sessions.
//
// Each client connection is served synchronously (a reply is written before
// the next request is read). Pipelining parallelism comes from connections —
// the replay drivers hold one per session — matching their synchronous
// per-session driving model.
type Server struct {
	router *Router
	conns  serve.Acceptor
}

// NewServer wraps a router.
func NewServer(r *Router) *Server {
	return &Server{router: r}
}

// Router exposes the underlying router.
func (s *Server) Router() *Router { return s.router }

// Serve accepts connections until Stop. It returns nil after a graceful stop
// and the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	return s.conns.Serve(ln, s.handleJSON, s.handleBinary)
}

// Stop stops accepting, closes live client connections, and waits for their
// handlers. The router (and the backends) keep running.
func (s *Server) Stop() { s.conns.Stop() }

// reclaim closes sessions a disconnected client left open — unless the
// server is stopping, in which case they stay routed (an operator stopping
// the router front end must not destroy backend session state).
func (s *Server) reclaim(opened map[string]struct{}) {
	if s.conns.Stopped() {
		return
	}
	for id := range opened {
		s.router.CloseSession(id)
	}
}

// handleJSON runs one line-delimited JSON client connection.
func (s *Server) handleJSON(conn net.Conn, br *bufio.Reader) {
	w := bufio.NewWriter(conn)
	opened := make(map[string]struct{})
	defer s.reclaim(opened)
	send := func(r serve.Reply) bool {
		if _, err := w.Write(serve.MarshalReply(r)); err != nil {
			return false
		}
		if err := w.WriteByte('\n'); err != nil {
			return false
		}
		return w.Flush() == nil
	}

	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var rec [1]trace.Record
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var req serve.Request
		if err := json.Unmarshal(line, &req); err != nil {
			if !send(serve.Reply{OK: false, Err: err.Error()}) {
				return
			}
			continue
		}
		var rep serve.Reply
		if req.Op == "access" {
			rec[0] = req.Record()
			if res, err := s.router.Access(req.Session, rec[:]); err != nil {
				rep = serve.Reply{OK: false, Session: req.Session, Err: err.Error()}
			} else {
				rep = serve.AccessReply(req.Session, res[0])
			}
		} else {
			rep = s.router.Control(req, opened)
		}
		if !send(rep) {
			return
		}
	}
}

// handleBinary runs one DARTWIRE1 client connection, reading frames after
// the handshake. Hot frames are decoded with the serve codec, routed, and
// the results re-encoded — framing corruption from the client is answered
// with a tag-0 error frame and a hang-up, exactly like a backend would,
// while routed failures (no healthy backend, unknown session) are
// per-request error frames that keep the connection.
func (s *Server) handleBinary(conn net.Conn, br *bufio.Reader) {
	w := bufio.NewWriterSize(conn, 1<<16)
	opened := make(map[string]struct{})
	defer s.reclaim(opened)
	var buf []byte
	write := func() bool {
		if _, err := w.Write(buf); err != nil {
			return false
		}
		return w.Flush() == nil
	}

	fr := serve.NewFrameReader(br)
	var recs []trace.Record
	for {
		kind, p, err := fr.Next()
		if err != nil {
			if err != io.EOF {
				buf = serve.AppendErrorReply(buf[:0], 0, err)
				write() // tell the client why before hanging up
			}
			return
		}
		switch kind {
		case serve.FrameControl:
			var req serve.Request
			if err := json.Unmarshal(p, &req); err != nil {
				buf = serve.AppendErrorReply(buf[:0], 0, fmt.Errorf("route: bad control frame: %w", err))
				write()
				return
			}
			buf = serve.AppendControlReply(buf[:0], serve.MarshalReply(s.router.Control(req, opened)))
		case serve.FrameAccess, serve.FrameBatch:
			var tag uint64
			var sid []byte
			tag, sid, recs, err = serve.DecodeAccessRequest(kind, p, recs[:0])
			if err != nil {
				buf = serve.AppendErrorReply(buf[:0], 0, err)
				write()
				return // malformed frame: the stream is not trustworthy
			}
			if res, err := s.router.Access(string(sid), recs); err != nil {
				buf = serve.AppendErrorReply(buf[:0], tag, err)
			} else {
				buf = serve.AppendResultsReply(buf[:0], kind == serve.FrameBatch, tag, res)
			}
		default:
			buf = serve.AppendErrorReply(buf[:0], 0, fmt.Errorf("route: unknown wire frame kind 0x%02x", kind))
			write()
			return
		}
		if !write() {
			return
		}
	}
}
