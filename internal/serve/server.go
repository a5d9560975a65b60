package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"

	"dart/internal/online"
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
	conns  Acceptor
}

// NewServer wraps an engine.
func NewServer(e *Engine) *Server {
	return &Server{engine: e}
}

// Engine exposes the underlying engine.
func (s *Server) Engine() *Engine { return s.engine }

// Serve accepts connections until Shutdown. It returns nil after a graceful
// shutdown and the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	return s.conns.Serve(ln, engineFront{s.engine})
}

// Stop stops accepting, closes live connections, and waits for their
// handlers — but leaves the engine and its open sessions running, so a
// caller (the load generator's wire runs) can serve several rounds through one
// engine. Shutdown is Stop plus an engine drain.
func (s *Server) Stop() { s.conns.Stop() }

// Shutdown stops accepting, closes live connections, waits for their
// handlers, and drains the engine, returning the final per-session results.
func (s *Server) Shutdown() map[string]sim.Result {
	s.Stop()
	return s.engine.Drain()
}

// engineFront is a daemon's Front: its engine, serving each access on the
// session's actor.
type engineFront struct{ *Engine }

func (f engineFront) CloseSession(id string) (sim.Result, error) { return f.Close(id) }

func (f engineFront) Answer(v Verb, req Request) Reply { return v.engine(f.Engine, req) }

// Control answers one control request on f by its row in Verbs: it refuses
// an unknown op and a hot verb itself, sends the session verbs to f's
// session table and every other row to f.Answer. Both connection loops call
// it, so every non-hot verb behaves identically over both protocols and on
// both fronts. opened tracks sessions owned by the calling connection for
// reclaim when it drops; nil tracks nothing.
func Control(f Front, req Request, opened map[string]struct{}) Reply {
	v, ok := Verbs.Lookup(req.Op)
	switch {
	case !ok:
		return Reply{OK: false, Err: "serve: unknown op " + req.Op}
	case v.Route == RouteHot:
		// The JSON loop intercepts access first, and binary clients must
		// use the framed hot verbs.
		return Reply{OK: false, Session: req.Session,
			Err: "serve: hot verb in a control frame: use access/batch frames"}
	case v.Route == RouteSession:
		return v.session(f, req, opened)
	}
	return f.Answer(v, req)
}

// statsVerb answers a mid-stream engine snapshot.
func statsVerb(e *Engine, _ Request) Reply {
	st := e.StatsSnapshot()
	return Reply{OK: true, Stats: &StatsReply{
		Sessions: st.Sessions,
		Accepted: st.Accepted,
		Batches:  st.Batches,
		Batched:  st.Batched,
		MaxBatch: st.MaxBatch,
		Online:   st.Online,
		AB:       abReply(st.AB),
		Policy:   policyReply(st.Policy, nil),
	}}
}

// withLearner adapts a verb that addresses the online learner: a daemon
// without one refuses it.
func withLearner(fn func(*online.Learner, Request) Reply) func(*Engine, Request) Reply {
	return func(e *Engine, req Request) Reply {
		if l := e.Learner(); l != nil {
			return fn(l, req)
		}
		return Reply{OK: false, Err: "serve: no online learner configured"}
	}
}

// classVerb builds the model/swap/rollback verbs: resolve the class selector
// through the learner's class table, apply act to the row (nil only
// reports), and answer the learner snapshot. Nothing here knows which
// classes exist.
func classVerb(act func(*online.Class) (uint64, error)) func(*online.Learner, Request) Reply {
	return func(l *online.Learner, req Request) Reply {
		rep := Reply{OK: true}
		c, err := l.Class(req.Class)
		if err == nil && act != nil {
			rep.Version, err = act(c)
		}
		if err != nil {
			return errReply("", err)
		}
		st := l.Stats()
		rep.Online = &st
		return rep
	}
}

// classesVerb lists every serving class.
func classesVerb(l *online.Learner, _ Request) Reply {
	return Reply{OK: true, Classes: classesReply(l.Classes())}
}

// policyVerb answers the promotion policy's state and decision log. Policy
// disabled is a valid state, not an error: the reply says so explicitly, so
// operators can distinguish "ungated" from "gated but quiet".
func policyVerb(l *online.Learner, _ Request) Reply {
	rep := Reply{OK: true, Policy: &PolicyReply{Enabled: false}}
	if pol := l.Policy(); pol != nil {
		st := pol.Stats()
		rep.Policy = policyReply(&st, pol.Decisions())
	}
	return rep
}

// writeLoop is a connection's writer: it writes the bytes of each queued
// reply, flushing whenever the queue is momentarily empty so pipelined
// bursts coalesce into few syscalls without adding batching latency, and
// then hands the reply to sent (when non-nil). Once the client is gone it
// keeps draining, so session actors and the reader never block on a reply.
func writeLoop[T any](w *bufio.Writer, out <-chan T, bytes func(T) []byte, sent func(T)) {
	var err error
	for r := range out {
		if err == nil {
			if _, err = w.Write(bytes(r)); err == nil && len(out) == 0 {
				err = w.Flush()
			}
		}
		if sent != nil {
			sent(r)
		}
	}
	if err == nil {
		w.Flush()
	}
}

// handleJSON runs one line-delimited JSON connection on f: a reader loop
// dispatching requests and a writer goroutine serialising replies (a
// daemon's access replies arrive concurrently from session goroutines).
// opened collects the sessions the connection opened and has not closed.
func handleJSON(f Front, conn net.Conn, br *bufio.Reader, opened map[string]struct{}) {
	out := make(chan []byte, 256)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		writeLoop(bufio.NewWriter(conn), out, func(line []byte) []byte { return line }, nil)
	}()

	send := func(r Reply) { out <- append(MarshalReply(r), '\n') }
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
			err := f.Submit(req.Session, req.Record(), func(resp Response) {
				defer pending.Done()
				send(AccessReply(resp.Session, AccessResult{
					Seq: resp.Seq, Hit: resp.Hit, Late: resp.Late,
					Version: resp.Version, Prefetches: resp.Prefetches,
				}))
			})
			if err != nil {
				pending.Done()
				send(errReply(req.Session, err))
			}
			continue
		}
		send(Control(f, req, opened))
	}
	// Wait for in-flight access replies, then let the writer drain and exit.
	pending.Wait()
	close(out)
	<-writerDone
}

// handleBinary runs one DARTWIRE1 connection on f, reading frames after the
// handshake. Hot-verb frames ride pooled WireJobs through f (on a daemon,
// through the session actors: zero allocations per access in steady
// state); control frames carry JSON and share the control dispatch with the
// JSON protocol. Framing-level corruption (bad CRC, truncation, garbage
// varints) is fatal to the connection — the stream is no longer
// trustworthy — while application errors (unknown session) answer with a
// per-frame error reply. opened is as for handleJSON.
func handleBinary(f Front, conn net.Conn, br *bufio.Reader, opened map[string]struct{}) {
	out := make(chan *WireJob, 256)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		writeLoop(bufio.NewWriterSize(conn, 1<<16), out, func(j *WireJob) []byte { return j.buf }, func(j *WireJob) {
			j.wg.Done()
			j.out, j.wg = nil, nil
			wireJobPool.Put(j)
		})
	}()

	var pending sync.WaitGroup
	// reply queues a job whose buf holds a complete reply frame.
	reply := func(j *WireJob) {
		pending.Add(1)
		j.wg = &pending
		out <- j
	}
	sendErr := func(tag uint64, err error) {
		j := wireJobPool.Get().(*WireJob)
		j.buf = AppendErrorReply(j.buf[:0], tag, err)
		reply(j)
	}

	rd := FrameReader{br: br}
loop:
	for {
		kind, p, err := rd.Next()
		if err != nil {
			if err != io.EOF {
				sendErr(0, err) // tell the client why before hanging up
			}
			break
		}
		switch kind {
		case FrameControl:
			var req Request
			if err := json.Unmarshal(p, &req); err != nil {
				sendErr(0, fmt.Errorf("serve: bad control frame: %w", err))
				break loop
			}
			j := wireJobPool.Get().(*WireJob)
			j.buf = AppendControlReply(j.buf[:0], MarshalReply(Control(f, req, opened)))
			reply(j)
		case FrameAccess, FrameBatch:
			j := wireJobPool.Get().(*WireJob)
			var sid []byte
			j.tag, sid, j.recs, err = DecodeAccessRequest(kind, p, j.recs[:0])
			if err != nil {
				wireJobPool.Put(j)
				sendErr(0, err)
				break loop // malformed frame: the stream is not trustworthy
			}
			j.kind, j.out, j.wg = kind, out, &pending
			pending.Add(1)
			if err := f.SubmitFrame(sid, j); err != nil {
				pending.Done()
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
}
