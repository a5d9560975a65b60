package route

import (
	"net"

	"dart/internal/serve"
)

// Server is the router's client-facing front end. It terminates both serving
// wire protocols exactly like a dart-serve daemon, because it is the same
// code: serve.Acceptor accepts and negotiates each connection and runs
// serve's JSON and DARTWIRE1 connection loops, and the Router is the
// serve.Front those loops serve — hot verbs go through its sharding machinery
// over pooled binary backend connections. Client frames are fully decoded
// and re-encoded, never spliced through: a client's framing corruption kills
// that client's connection only, and can never poison a pooled backend
// connection shared with other sessions.
//
// The Router finishes each routed access on the connection's reader
// goroutine, so a connection's requests are routed one at a time and in
// order; the loop's writer goroutine writes the replies. Pipelining
// parallelism comes from connections — the replay drivers hold one per
// session — matching their synchronous per-session driving model.
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
	return s.conns.Serve(ln, s.router)
}

// Stop stops accepting, closes live client connections, and waits for their
// handlers. The router (and the backends) keep running, and so do the
// sessions those connections had open: stopping the front end must not
// destroy backend session state.
func (s *Server) Stop() { s.conns.Stop() }
