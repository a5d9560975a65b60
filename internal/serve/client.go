package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"dart/internal/sim"
	"dart/internal/trace"
)

// Client is a synchronous client for the daemon's wire protocols. It speaks
// either encoding over one connection — line-delimited JSON, or DARTWIRE1
// binary framing with the hot verbs packed as varint records and every other
// verb riding as JSON inside control frames (see docs/PROTOCOL.md).
//
// A Client is not safe for concurrent use; the replay drivers hold one per
// session. Its request and reply buffers are reused across calls, so in
// steady state a binary-protocol access batch allocates nothing.
//
// A transport-level failure — a dead connection, a timeout, a corrupt frame —
// poisons the client: the first root cause is recorded and every subsequent
// call returns it (wrapped), never a bare io.EOF. Application-level errors
// (unknown session, bad verb) leave the connection usable.
type Client struct {
	conn    net.Conn
	bw      *bufio.Writer
	binary  bool
	rd      FrameReader    // binary frame reader
	sc      *bufio.Scanner // JSON line reader
	tag     uint64         // binary request tag (echoed by replies)
	timeout time.Duration  // per-call connection deadline; 0 = none
	batch   int            // preferred accesses per frame (WithBatchSize)
	err     error          // sticky first transport failure
	buf     []byte         // request build buffer
	one     [1]trace.Record
	res     []AccessResult // reply decode buffer, reused across calls
	pf      []uint64       // backing store for AccessResult.Prefetches
}

// AccessResult is one served access decoded from either protocol.
type AccessResult struct {
	Seq     uint64
	Hit     bool
	Late    bool
	Version uint64
	// Prefetches aliases a client-owned buffer, valid until the next call.
	Prefetches []uint64
}

// errClientClosed poisons a client whose own Close was called.
var errClientClosed = errors.New("serve: client closed")

// newClient wraps an established connection per the Connect options. proto
// "binary" performs the DARTWIRE1 handshake (send the magic, require the
// server's echo) before returning; "json" needs no handshake — the server
// negotiates off the first byte of the first request line.
func newClient(conn net.Conn, o clientOptions) (*Client, error) {
	if o.batch <= 0 {
		o.batch = 64
	}
	c := &Client{conn: conn, bw: bufio.NewWriterSize(conn, 1<<16),
		timeout: o.timeout, batch: o.batch}
	br := bufio.NewReaderSize(conn, 1<<16)
	switch o.proto {
	case "json":
		c.sc = bufio.NewScanner(br)
		c.sc.Buffer(make([]byte, 1<<20), 1<<20)
	case "binary":
		c.binary = true
		c.rd.br = br
		c.arm()
		if _, err := c.bw.WriteString(WireMagic); err != nil {
			return nil, err
		}
		if err := c.bw.Flush(); err != nil {
			return nil, err
		}
		var echo [len(WireMagic)]byte
		if _, err := io.ReadFull(br, echo[:]); err != nil {
			return nil, fmt.Errorf("serve: handshake failed: %w", err)
		}
		if string(echo[:]) != WireMagic {
			return nil, fmt.Errorf("serve: bad handshake echo %q (want %q)", echo[:], WireMagic)
		}
	default:
		return nil, fmt.Errorf("serve: unknown protocol %q (have \"json\" and \"binary\")", o.proto)
	}
	return c, nil
}

// BatchSize reports the preferred accesses-per-frame configured at Connect
// (WithBatchSize; default 64), for callers that size their frames from it.
func (c *Client) BatchSize() int { return c.batch }

// Broken reports the sticky transport failure that poisoned this client, or
// nil while it is usable. Connection pools (the router tier) use it to decide
// whether a client can be checked back in after a call returned an error —
// application errors leave Broken nil.
func (c *Client) Broken() error { return c.err }

// Close closes the underlying connection and poisons the client.
func (c *Client) Close() error {
	if c.err == nil {
		c.err = errClientClosed
	}
	return c.conn.Close()
}

// arm starts the per-call deadline configured by WithTimeout.
func (c *Client) arm() {
	if c.timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.timeout))
	}
}

// fail records the first transport-level failure as the client's sticky
// error. Every later call reports that original cause — the router's health
// checks rely on "connection reset by peer" staying distinguishable from a
// clean close long after the failing call returned.
func (c *Client) fail(err error) error {
	if c.err == nil {
		c.err = err
	}
	return err
}

// dead reports the sticky error, wrapped so late callers see both that the
// client is unusable and why it became so.
func (c *Client) dead() error {
	if c.err == nil {
		return nil
	}
	return fmt.Errorf("serve: connection dead: %w", c.err)
}

// readReply reads and decodes the next JSON reply line. Every caller is
// owed a reply, so end-of-stream here is never a clean EOF: it surfaces the
// scanner's root cause (a reset, a too-long line) or io.ErrUnexpectedEOF for
// a silent close.
func (c *Client) readReply() (Reply, error) {
	var rep Reply
	if !c.sc.Scan() {
		err := c.sc.Err()
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return rep, c.fail(fmt.Errorf("serve: connection closed awaiting reply: %w", err))
	}
	if err := json.Unmarshal(c.sc.Bytes(), &rep); err != nil {
		return rep, c.fail(err)
	}
	return rep, nil
}

// writeLine queues b as one JSON request line.
func (c *Client) writeLine(b []byte) error {
	if _, err := c.bw.Write(b); err != nil {
		return c.fail(err)
	}
	if err := c.bw.WriteByte('\n'); err != nil {
		return c.fail(err)
	}
	return nil
}

// exchange sends the request frame in c.buf and returns the payload of its
// reply, whose kind must be the request's with the high bit set. An error
// frame becomes the call's error, and end-of-stream the owed-a-reply form
// like readReply.
func (c *Client) exchange() ([]byte, error) {
	if _, err := c.bw.Write(c.buf); err != nil {
		return nil, c.fail(err)
	}
	if err := c.bw.Flush(); err != nil {
		return nil, c.fail(err)
	}
	kind, p, err := c.rd.Next()
	switch {
	case err == io.EOF:
		return nil, c.fail(fmt.Errorf("serve: connection closed awaiting reply: %w", io.ErrUnexpectedEOF))
	case err != nil:
		return nil, c.fail(err)
	case kind == FrameError:
		return nil, c.errorFrame(p)
	case kind != c.buf[0]|0x80:
		return nil, c.fail(fmt.Errorf("serve: unexpected reply frame kind 0x%02x", kind))
	}
	return p, nil
}

// remoteErr rebuilds an error a server sent as text, in an error frame or
// an ok:false reply. The interned session errors come back as themselves,
// so callers classify remote failures with errors.Is.
func remoteErr(msg string) error {
	for _, known := range []error{ErrUnknownSession, ErrSessionClosed} {
		if msg == known.Error() {
			return known
		}
	}
	return errors.New(msg)
}

// wireErr decodes an error frame's payload into its tag and error. Tag 0
// marks a connection-level failure — the server hangs up after sending it.
func wireErr(p []byte) (uint64, error) {
	if tag, rest, err := readUvarint(p); err == nil {
		return tag, remoteErr(string(rest))
	}
	return 0, fmt.Errorf("serve: undecodable error frame %q", p)
}

// errorFrame converts an error reply to the call's error, poisoning the
// client when the server declared the connection itself broken (tag 0).
func (c *Client) errorFrame(p []byte) error {
	tag, err := wireErr(p)
	if tag == 0 {
		return c.fail(fmt.Errorf("serve: server failed the connection: %w", err))
	}
	return err
}

// Do executes one verb synchronously and returns the decoded reply. On the
// binary protocol the request travels as a JSON payload inside a control
// frame, so every non-hot verb works identically over both encodings.
func (c *Client) Do(req Request) (Reply, error) {
	if err := c.dead(); err != nil {
		return Reply{}, err
	}
	b, err := json.Marshal(req)
	if err != nil {
		return Reply{}, err
	}
	c.arm()
	if c.binary {
		c.tag++
		c.buf = appendFrame(c.buf[:0], FrameControl, b)
		p, err := c.exchange()
		if err != nil {
			return Reply{}, err
		}
		var rep Reply
		if err := json.Unmarshal(p, &rep); err != nil {
			return Reply{}, c.fail(err)
		}
		return rep, nil
	}
	if err := c.writeLine(b); err != nil {
		return Reply{}, err
	}
	if err := c.bw.Flush(); err != nil {
		return Reply{}, c.fail(err)
	}
	return c.readReply()
}

// do executes a verb and converts a protocol-level failure into an error.
func (c *Client) do(req Request) (Reply, error) {
	rep, err := c.Do(req)
	if err != nil {
		return rep, err
	}
	if !rep.OK {
		return rep, remoteErr(rep.Err)
	}
	return rep, nil
}

// Open opens a session with default options.
func (c *Client) Open(id, prefetcher string, degree int) error {
	return c.OpenSession(id, SessionOptions{Prefetcher: prefetcher, Degree: degree})
}

// OpenSession opens a session with the full option surface: tenant,
// fair-share weight, and a per-session machine model.
func (c *Client) OpenSession(id string, opt SessionOptions) error {
	_, err := c.do(Request{
		Op: "open", Session: id,
		Prefetcher: opt.Prefetcher, Degree: opt.Degree,
		Tenant: opt.Tenant, Weight: opt.Weight, Sim: opt.SimCfg,
	})
	return err
}

// CloseSession closes a session and returns its final simulator result.
func (c *Client) CloseSession(id string) (sim.Result, error) {
	rep, err := c.do(Request{Op: "close", Session: id})
	if err != nil {
		return sim.Result{}, err
	}
	if rep.Result == nil {
		return sim.Result{}, fmt.Errorf("serve: close reply carries no result")
	}
	return *rep.Result, nil
}

// Access serves one record synchronously.
func (c *Client) Access(id string, rec trace.Record) (AccessResult, error) {
	c.one[0] = rec
	res, err := c.AccessBatch(id, c.one[:])
	if err != nil {
		return AccessResult{}, err
	}
	return res[0], nil
}

// AccessBatch pumps recs through the session in order and returns one result
// per record. On the binary protocol the whole batch travels in one frame
// (the batch hot verb — or an access frame for a single record); on JSON the
// access requests are pipelined and the replies read back in order. The
// returned slice and its Prefetches alias client-owned buffers, valid until
// the next call.
func (c *Client) AccessBatch(id string, recs []trace.Record) ([]AccessResult, error) {
	if len(recs) == 0 {
		return nil, nil
	}
	if err := c.dead(); err != nil {
		return nil, err
	}
	c.arm()
	if c.binary {
		c.tag++
		c.buf = AppendAccessRequest(c.buf[:0], c.tag, id, recs)
		p, err := c.exchange()
		if err != nil {
			return nil, err
		}
		return c.decodeResults(c.buf[0] == FrameBatch, p, len(recs))
	}
	for i := range recs {
		b, err := json.Marshal(Request{
			Op: "access", Session: id,
			InstrID: recs[i].InstrID, PC: Hex64(recs[i].PC),
			Addr: Hex64(recs[i].Addr), IsLoad: recs[i].IsLoad,
		})
		if err != nil {
			return nil, err
		}
		if err := c.writeLine(b); err != nil {
			return nil, err
		}
	}
	if err := c.bw.Flush(); err != nil {
		return nil, c.fail(err)
	}
	c.res, c.pf = c.res[:0], c.pf[:0]
	for range recs {
		rep, err := c.readReply()
		if err != nil {
			return nil, err
		}
		if !rep.OK {
			return nil, remoteErr(rep.Err)
		}
		start := len(c.pf)
		for _, h := range rep.Prefetch {
			c.pf = append(c.pf, uint64(h))
		}
		c.res = append(c.res, AccessResult{
			Seq: rep.Seq, Hit: rep.Hit, Late: rep.Late,
			Version: rep.Version, Prefetches: c.pf[start:len(c.pf):len(c.pf)],
		})
	}
	return c.res, nil
}

// decodeResults parses an access or batch reply payload into the client's
// reusable result buffers. Decode failures poison the client — a stream that
// framed garbage is no longer trustworthy.
func (c *Client) decodeResults(batch bool, p []byte, want int) ([]AccessResult, error) {
	tag, p, err := readUvarint(p)
	if err != nil {
		return nil, c.fail(err)
	}
	if tag != c.tag {
		return nil, c.fail(fmt.Errorf("serve: reply tag %d for request tag %d", tag, c.tag))
	}
	seq, p, err := readUvarint(p)
	if err != nil {
		return nil, c.fail(err)
	}
	count := uint64(1)
	if batch {
		if count, p, err = readUvarint(p); err != nil {
			return nil, c.fail(err)
		}
	}
	if count != uint64(want) {
		return nil, c.fail(fmt.Errorf("serve: reply carries %d results, want %d", count, want))
	}
	c.res, c.pf = c.res[:0], c.pf[:0]
	for i := uint64(0); i < count; i++ {
		if len(p) == 0 {
			return nil, c.fail(fmt.Errorf("serve: wire result %d missing flags byte", i))
		}
		fl := p[0]
		p = p[1:]
		var ver, np uint64
		if ver, p, err = readUvarint(p); err != nil {
			return nil, c.fail(err)
		}
		if np, p, err = readUvarint(p); err != nil {
			return nil, c.fail(err)
		}
		start := len(c.pf)
		for k := uint64(0); k < np; k++ {
			var pb uint64
			if pb, p, err = readUvarint(p); err != nil {
				return nil, c.fail(err)
			}
			c.pf = append(c.pf, pb)
		}
		c.res = append(c.res, AccessResult{
			Seq: seq + i, Hit: fl&wireHit != 0, Late: fl&wireLate != 0,
			Version: ver, Prefetches: c.pf[start:len(c.pf):len(c.pf)],
		})
	}
	if len(p) != 0 {
		return nil, c.fail(fmt.Errorf("serve: %d trailing bytes in wire reply", len(p)))
	}
	return c.res, nil
}
