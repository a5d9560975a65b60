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
// connections, the race between Stop and a connection being accepted, the
// per-connection protocol negotiation — the server peeks at the first byte,
// and a DARTWIRE1 client's banner is checked and echoed here — the JSON and
// DARTWIRE1 connection loops (server.go), and the reclaim of the sessions a
// dropped connection left open. A front end supplies only its Front. The
// zero value is ready to use.
type Acceptor struct {
	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
}

// Serve accepts connections on ln until Stop and serves each on f, through
// the JSON loop or, after a good DARTWIRE1 handshake, the binary one. It
// returns nil after Stop and the accept error otherwise.
func (a *Acceptor) Serve(ln net.Listener, f Front) error {
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
		go a.handle(conn, f)
	}
}

// handle negotiates the protocol for one connection: the DARTWIRE1 magic's
// first byte selects binary framing, any other the line-delimited JSON
// protocol. A 'D' that does not open the exact banner is answered with one
// plain-text line — the version digit is the compatibility gate. Once the
// loop ends, the sessions the connection left open are closed, so a front
// cannot accumulate orphaned sessions and wedged ids — unless Stop ended
// it: then the owner's shutdown path collects them (a daemon's Shutdown
// returns their final results, and a router keeps them routed).
func (a *Acceptor) handle(conn net.Conn, f Front) {
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
	loop := handleJSON
	if first[0] == WireMagic[0] {
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
		loop = handleBinary
	}
	opened := make(map[string]struct{})
	loop(f, conn, br, opened)
	if a.closed.Load() {
		return
	}
	for id := range opened {
		f.CloseSession(id)
	}
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
