package serve

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// Acceptor is the connection layer every wire front end shares — a daemon's
// Server and a router's. It owns the accept loop, the set of live
// connections, the race between Stop and a connection being accepted, and
// the per-connection protocol negotiation: the server peeks at the first
// byte, and a DARTWIRE1 client's banner is checked and echoed here, so each
// handler starts at the first frame or the first JSON line. The zero value
// is ready to use.
type Acceptor struct {
	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
}

// ConnHandler serves one negotiated connection until it ends; br buffers
// what the client sent after the handshake. The acceptor closes conn when
// the handler returns.
type ConnHandler func(conn net.Conn, br *bufio.Reader)

// Serve accepts connections on ln until Stop, handing each to serveJSON or,
// after a good DARTWIRE1 handshake, to serveBinary. It returns nil after
// Stop and the accept error otherwise.
func (a *Acceptor) Serve(ln net.Listener, serveJSON, serveBinary ConnHandler) error {
	a.mu.Lock()
	a.ln = ln
	a.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if a.closed.Load() {
				return nil
			}
			return err
		}
		// Registration and the stop check share the mutex: a conn accepted
		// as Stop begins is either registered before Stop closes the conn
		// set (and gets closed and waited on like the rest) or observes
		// closed and is dropped here — it can never slip past wg.Wait into
		// a post-stop handler.
		a.mu.Lock()
		if a.closed.Load() {
			a.mu.Unlock()
			conn.Close()
			continue
		}
		if a.conns == nil {
			a.conns = make(map[net.Conn]struct{})
		}
		a.conns[conn] = struct{}{}
		a.wg.Add(1)
		a.mu.Unlock()
		go a.handle(conn, serveJSON, serveBinary)
	}
}

// handle negotiates the protocol for one connection: the DARTWIRE1 magic's
// first byte selects binary framing, any other the line-delimited JSON
// protocol. A 'D' that does not open the exact banner is answered with one
// plain-text line — the version digit is the compatibility gate.
func (a *Acceptor) handle(conn net.Conn, serveJSON, serveBinary ConnHandler) {
	defer a.wg.Done()
	defer func() {
		a.mu.Lock()
		delete(a.conns, conn)
		a.mu.Unlock()
		conn.Close()
	}()

	br := bufio.NewReaderSize(conn, 1<<16)
	first, err := br.Peek(1)
	if err != nil {
		return
	}
	if first[0] != WireMagic[0] {
		serveJSON(conn, br)
		return
	}
	var magic [len(WireMagic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return
	}
	if string(magic[:]) != WireMagic {
		fmt.Fprintf(conn, "serve: bad protocol magic %q (want %q)\n", magic[:], WireMagic)
		return
	}
	if _, err := io.WriteString(conn, WireMagic); err != nil {
		return
	}
	serveBinary(conn, br)
}

// Stop stops accepting, closes every live connection, and waits for their
// handlers.
func (a *Acceptor) Stop() {
	a.closed.Store(true)
	a.mu.Lock()
	if a.ln != nil {
		a.ln.Close()
	}
	for c := range a.conns {
		c.Close()
	}
	a.mu.Unlock()
	a.wg.Wait()
}

// Stopped reports whether Stop has begun. A handler whose connection ended
// because of it leaves the connection's sessions to its owner's shutdown
// path instead of reclaiming them.
func (a *Acceptor) Stopped() bool { return a.closed.Load() }
