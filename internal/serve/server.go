package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"dart/internal/sim"
)

// Server speaks both wire protocols over any net.Listener (TCP or unix
// socket), negotiating per connection: a client that opens with the
// DARTWIRE1 magic gets the binary framed protocol, any other first byte
// (in practice '{') selects the line-delimited JSON protocol. See
// docs/PROTOCOL.md for both specifications.
//
// Clients may pipeline: access replies are written as each access completes,
// tagged (session+seq on JSON, request tag on binary), so a client
// interleaving several sessions on one connection can match them up.
// Backpressure is end-to-end — a full session inbox blocks the connection's
// reader, which stops draining the socket, which throttles the sender.
type Server struct {
	engine *Engine

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
}

// NewServer wraps an engine.
func NewServer(e *Engine) *Server {
	return &Server{engine: e, conns: make(map[net.Conn]struct{})}
}

// Engine exposes the underlying engine.
func (s *Server) Engine() *Engine { return s.engine }

// Serve accepts connections until Shutdown. It returns nil after a graceful
// shutdown and the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		// Registration and the shutdown check share the mutex: a conn
		// accepted as Shutdown begins is either registered before Shutdown
		// closes the conn map (and gets closed+waited on like the rest) or
		// observes closed and is dropped here — it can never slip past
		// wg.Wait into a post-shutdown handler.
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// Stop stops accepting, closes live connections, and waits for their
// handlers — but leaves the engine and its open sessions running, so a
// caller (the load generator's wire runs) can serve several rounds through one
// engine. Shutdown is Stop plus an engine drain.
func (s *Server) Stop() {
	s.closed.Store(true)
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Shutdown stops accepting, closes live connections, waits for their
// handlers, and drains the engine, returning the final per-session results.
func (s *Server) Shutdown() map[string]sim.Result {
	s.Stop()
	return s.engine.Drain()
}

// handle negotiates the protocol for one connection and dispatches to the
// matching handler: the DARTWIRE1 magic byte selects binary framing, any
// other first byte the line-delimited JSON protocol.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	br := bufio.NewReaderSize(conn, 1<<16)
	first, err := br.Peek(1)
	if err != nil {
		return
	}
	if first[0] == wireMagic[0] {
		s.handleBinary(conn, br)
		return
	}
	s.handleJSON(conn, br)
}

// control executes one synchronous verb — everything except the access hot
// path — and returns its reply. Shared by the JSON loop and binary control
// frames, so every non-hot verb behaves identically over both protocols.
// opened tracks sessions owned by the calling connection for crash reclaim.
func (s *Server) control(req Request, opened map[string]struct{}) Reply {
	switch req.Op {
	case "open":
		err := s.engine.OpenSession(req.Session, SessionOptions{
			Prefetcher: req.Prefetcher,
			Degree:     req.Degree,
			Tenant:     req.Tenant,
			Weight:     req.Weight,
			SimCfg:     req.Sim,
		})
		if err != nil {
			return errReply(req.Session, err)
		}
		opened[req.Session] = struct{}{}
		return Reply{OK: true, Session: req.Session}
	case "close":
		res, err := s.engine.Close(req.Session)
		if err != nil {
			return errReply(req.Session, err)
		}
		delete(opened, req.Session)
		return Reply{OK: true, Session: req.Session, Result: &res}
	case "stats":
		st := s.engine.StatsSnapshot()
		sr := &StatsReply{
			Sessions: st.Sessions,
			Accepted: st.Accepted,
			Batches:  st.Batches,
			Batched:  st.Batched,
			MaxBatch: st.MaxBatch,
			Online:   st.Online,
		}
		sr.AB = abReply(st.AB)
		sr.Policy = policyReply(st.Policy, nil)
		return Reply{OK: true, Stats: sr}
	case "model", "swap", "rollback", "classes", "policy":
		return s.learnerVerb(req)
	case "access", "batch":
		// Only reachable through a binary control frame: the JSON loop
		// intercepts access first, and binary clients must use the framed
		// hot verbs.
		return Reply{OK: false, Session: req.Session,
			Err: "serve: hot verb in a control frame: use access/batch frames"}
	default:
		return Reply{OK: false, Err: "serve: unknown op " + req.Op}
	}
}

// learnerVerb executes the verbs that address the online learner. The
// model/swap/rollback verbs resolve their class selector through the
// learner's class table and act on the row; nothing here knows which classes
// exist.
func (s *Server) learnerVerb(req Request) Reply {
	l := s.engine.Learner()
	if l == nil {
		return Reply{OK: false, Err: "serve: no online learner configured"}
	}
	rep := Reply{OK: true}
	switch req.Op {
	case "classes":
		rep.Classes = classesReply(l.Classes())
		return rep
	case "policy":
		// Policy disabled is a valid state, not an error: the reply says so
		// explicitly, so operators can distinguish "ungated" from "gated
		// but quiet".
		rep.Policy = &PolicyReply{Enabled: false}
		if pol := l.Policy(); pol != nil {
			st := pol.Stats()
			rep.Policy = policyReply(&st, pol.Decisions())
		}
		return rep
	}
	c, err := l.Class(req.Class)
	if err == nil {
		switch req.Op {
		case "swap":
			rep.Version, err = c.Swap()
		case "rollback":
			rep.Version, err = c.Rollback()
		}
	}
	if err != nil {
		return errReply("", err)
	}
	st := l.Stats()
	rep.Online = &st
	return rep
}

// handleJSON runs one line-delimited JSON connection: a reader loop
// dispatching requests and a writer goroutine serialising replies (access
// replies arrive concurrently from session goroutines).
func (s *Server) handleJSON(conn net.Conn, br *bufio.Reader) {
	out := make(chan []byte, 256)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		w := bufio.NewWriter(conn)
		var werr error
		for line := range out {
			if werr != nil {
				continue // client gone: keep draining so senders never block
			}
			if _, err := w.Write(line); err != nil {
				werr = err
				continue
			}
			if err := w.WriteByte('\n'); err != nil {
				werr = err
				continue
			}
			// Flush when the channel is momentarily empty so pipelined
			// bursts coalesce into few syscalls without batching latency.
			if len(out) == 0 {
				if err := w.Flush(); err != nil {
					werr = err
				}
			}
		}
		if werr == nil {
			w.Flush()
		}
	}()

	send := func(r Reply) {
		b, err := json.Marshal(r)
		if err != nil {
			b = []byte(`{"ok":false,"error":"serve: reply marshal failed"}`)
		}
		out <- b
	}

	// Sessions opened on this connection. If the client disconnects without
	// closing them (crash, dropped link), they are reclaimed below so the
	// daemon cannot accumulate orphaned actors and wedged session ids.
	opened := make(map[string]struct{})

	var pending sync.WaitGroup
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var req Request
		if err := json.Unmarshal(line, &req); err != nil {
			send(errReply("", err))
			continue
		}
		if req.Op == "access" {
			pending.Add(1)
			err := s.engine.Submit(req.Session, req.Record(), func(resp Response) {
				defer pending.Done()
				pf := make([]Hex64, len(resp.Prefetches))
				for i, b := range resp.Prefetches {
					pf[i] = Hex64(b)
				}
				send(Reply{
					OK: true, Session: resp.Session, Seq: resp.Seq,
					Hit: resp.Hit, Late: resp.Late, Prefetch: pf,
					Version: resp.Version,
				})
			})
			if err != nil {
				pending.Done()
				send(errReply(req.Session, err))
			}
			continue
		}
		send(s.control(req, opened))
	}
	// Wait for in-flight access replies, then let the writer drain and exit.
	pending.Wait()
	close(out)
	<-writerDone

	// Reclaim sessions the client abandoned — unless the server itself is
	// shutting down, in which case engine.Drain collects them so Shutdown
	// can return their final results.
	if !s.closed.Load() {
		for id := range opened {
			s.engine.Close(id)
		}
	}
}

// handleBinary runs one DARTWIRE1 connection: verify and echo the handshake
// banner, then loop reading frames. Hot-verb frames ride pooled wireJobs
// through the session actors (zero allocations per access in steady state);
// control frames carry JSON and share the control dispatch with the JSON
// protocol. Framing-level corruption (bad CRC, truncation, garbage varints)
// is fatal to the connection — the stream is no longer trustworthy — while
// application errors (unknown session) answer with a per-frame error reply.
func (s *Server) handleBinary(conn net.Conn, br *bufio.Reader) {
	var magic [len(wireMagic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return
	}
	if string(magic[:]) != wireMagic {
		fmt.Fprintf(conn, "serve: bad protocol magic %q (want %q)\n", magic[:], wireMagic)
		return
	}
	if _, err := conn.Write([]byte(wireMagic)); err != nil {
		return
	}

	out := make(chan *wireJob, 256)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		w := bufio.NewWriterSize(conn, 1<<16)
		var werr error
		for j := range out {
			if werr == nil {
				if _, err := w.Write(j.buf); err != nil {
					werr = err
				} else if len(out) == 0 {
					// Flush when the channel is momentarily empty so
					// pipelined bursts coalesce into few syscalls without
					// adding batching latency.
					if err := w.Flush(); err != nil {
						werr = err
					}
				}
			}
			// Even when the client is gone, keep consuming and signalling
			// jobs so session actors and the reader never block on a reply.
			if j.wg != nil {
				j.wg.Done()
			}
			j.out, j.wg = nil, nil
			wireJobPool.Put(j)
		}
		if werr == nil {
			w.Flush()
		}
	}()

	var pending sync.WaitGroup
	opened := make(map[string]struct{})
	// Conn-local session cache: the hot loop resolves each session id once,
	// then skips the shard lookup (and the id allocation) entirely.
	// Invalidated when a submit fails — the actor closed; a session reopened
	// under the same id is a different actor.
	cache := make(map[string]*session)

	sendErr := func(tag uint64, err error) {
		j := wireJobPool.Get().(*wireJob)
		j.buf = appendErrorFrame(j.buf[:0], tag, err)
		pending.Add(1)
		j.wg = &pending
		out <- j
	}

	rd := wireReader{br: br}
loop:
	for {
		kind, p, err := rd.next()
		if err != nil {
			if err != io.EOF {
				sendErr(0, err) // tell the client why before hanging up
			}
			break
		}
		switch kind {
		case frameControl:
			var req Request
			if err := json.Unmarshal(p, &req); err != nil {
				sendErr(0, fmt.Errorf("serve: bad control frame: %w", err))
				break loop
			}
			b, err := json.Marshal(s.control(req, opened))
			if err != nil {
				b = []byte(`{"ok":false,"error":"serve: reply marshal failed"}`)
			}
			j := wireJobPool.Get().(*wireJob)
			j.buf = beginFrame(j.buf[:0], frameControlReply)
			j.buf = append(j.buf, b...)
			j.buf = finishFrame(j.buf, 0)
			pending.Add(1)
			j.wg = &pending
			out <- j
		case frameAccess, frameBatch:
			j := wireJobPool.Get().(*wireJob)
			sid, err := decodeJob(kind, p, j)
			if err != nil {
				wireJobPool.Put(j)
				sendErr(0, err)
				break loop // malformed frame: the stream is not trustworthy
			}
			sess := cache[string(sid)]
			if sess == nil {
				if sess, err = s.engine.lookupBytes(sid); err != nil {
					tag := j.tag
					wireJobPool.Put(j)
					sendErr(tag, err)
					continue
				}
				cache[string(sid)] = sess
			}
			j.out, j.wg = out, &pending
			pending.Add(1)
			if err := s.engine.submitJob(sess, j); err != nil {
				pending.Done()
				// The cached actor closed. Drop the stale entry and retry
				// once: a client may close and reopen an id on one conn.
				delete(cache, string(sid))
				if sess, err2 := s.engine.lookupBytes(sid); err2 == nil {
					cache[string(sid)] = sess
					pending.Add(1)
					if err = s.engine.submitJob(sess, j); err == nil {
						continue
					}
					pending.Done()
				}
				tag := j.tag
				j.out, j.wg = nil, nil
				wireJobPool.Put(j)
				sendErr(tag, err)
			}
		default:
			sendErr(0, fmt.Errorf("serve: unknown wire frame kind 0x%02x", kind))
			break loop
		}
	}
	// Wait for in-flight jobs, then let the writer drain and exit.
	pending.Wait()
	close(out)
	<-writerDone

	if !s.closed.Load() {
		for id := range opened {
			s.engine.Close(id)
		}
	}
}
