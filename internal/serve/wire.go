package serve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"dart/internal/trace"
)

// This file is the DARTWIRE1 binary protocol codec: length-prefixed,
// CRC-guarded frames carrying the hot verbs (access, batch) as varint-packed
// records and everything else as JSON payloads inside control frames. The
// full byte-level specification lives in docs/PROTOCOL.md; the design reuses
// the magic+length+CRC idiom of the nn checkpoint frames (nn.WriteFrame).
//
// There is one encoder and one decoder per payload shape, exported so a
// protocol front end — the router tier in internal/route — terminates client
// connections through the same code dart-serve runs. The steady-state path
// allocates nothing per access: a pooled wireJob rides the whole pipeline
// (connection reader → session actor → connection writer), the request
// records are decoded into the job's reused slice, and the reply frame is
// encoded in place into the job's reused buffer.

// WireMagic is the negotiation banner: a client opens a binary connection by
// sending these 9 bytes ("DARTWIRE" + the protocol version digit) before the
// first frame; the server echoes them to accept. Any other first byte on a
// fresh connection selects the line-delimited JSON protocol.
const WireMagic = "DARTWIRE1"

// maxWirePayload caps the declared payload length of a single frame so a
// corrupt or hostile header cannot trigger a huge allocation before the CRC
// is ever checked (same defence as the checkpoint reader's section cap).
const maxWirePayload = 1 << 24

// wireHeaderLen is the fixed frame header: kind(1) + payload length (u32,
// big-endian) + CRC32-IEEE of the payload (u32, big-endian).
const wireHeaderLen = 9

// Frame kinds. Replies set the high bit of the request kind; the error
// reply 0x7f answers any request whose frame decoded but whose execution
// failed (framing-level corruption instead kills the connection).
const (
	FrameControl      byte = 0x01 // JSON Request payload: any non-hot verb
	FrameAccess       byte = 0x02 // one varint-packed access record
	FrameBatch        byte = 0x03 // count-prefixed varint-packed access records
	FrameError        byte = 0x7f // reply: tag uvarint + error message bytes
	FrameControlReply byte = 0x81 // JSON Reply payload
	FrameAccessReply  byte = 0x82 // tag, seq, one access result
	FrameBatchReply   byte = 0x83 // tag, first seq, count, access results
)

// Access-record and result flag bits.
const (
	wireIsLoad = 1 << 0 // request record: the access is a load
	wireHit    = 1 << 0 // result: demand hit
	wireLate   = 1 << 1 // result: covered by an in-flight prefetch
)

var errBadVarint = errors.New("serve: bad varint in wire frame")

// readUvarint decodes one uvarint off the front of p. Unlike binary.Uvarint
// it makes truncated or overlong encodings a loud error instead of a silent
// zero — garbage in a frame must fail the frame.
func readUvarint(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, errBadVarint
	}
	return v, p[n:], nil
}

// beginFrame appends a frame header for kind with the length and CRC fields
// still zero; finishFrame patches them once the payload has been appended.
func beginFrame(buf []byte, kind byte) []byte {
	var hdr [wireHeaderLen]byte
	hdr[0] = kind
	return append(buf, hdr[:]...)
}

// finishFrame patches the payload length and CRC into the header begun at
// offset start; everything appended after the header is the payload.
func finishFrame(buf []byte, start int) []byte {
	payload := buf[start+wireHeaderLen:]
	binary.BigEndian.PutUint32(buf[start+1:], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[start+5:], crc32.ChecksumIEEE(payload))
	return buf
}

// appendFrame appends one complete frame of kind carrying payload verbatim.
func appendFrame(buf []byte, kind byte, payload []byte) []byte {
	start := len(buf)
	buf = beginFrame(buf, kind)
	buf = append(buf, payload...)
	return finishFrame(buf, start)
}

// FrameReader reads and CRC-checks DARTWIRE1 frames off a buffered stream
// positioned after the handshake banner, reusing one payload buffer across
// reads.
type FrameReader struct {
	br  *bufio.Reader
	buf []byte
}

// NewFrameReader wraps br (positioned after the handshake banner).
func NewFrameReader(br *bufio.Reader) *FrameReader {
	return &FrameReader{br: br}
}

// Next reads one frame and verifies its CRC, returning its kind and payload;
// the payload is valid until the next call. io.EOF is returned bare only at
// a clean frame boundary; every other failure wraps what went wrong.
func (r *FrameReader) Next() (byte, []byte, error) {
	var hdr [wireHeaderLen]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("serve: truncated wire frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[1:5])
	if n > maxWirePayload {
		return 0, nil, fmt.Errorf("serve: wire frame declares %d-byte payload (max %d)", n, maxWirePayload)
	}
	if cap(r.buf) < int(n) {
		r.buf = make([]byte, n)
	}
	p := r.buf[:n]
	if _, err := io.ReadFull(r.br, p); err != nil {
		return 0, nil, fmt.Errorf("serve: truncated wire frame: %w", err)
	}
	if got, want := crc32.ChecksumIEEE(p), binary.BigEndian.Uint32(hdr[5:9]); got != want {
		return 0, nil, fmt.Errorf("serve: wire frame CRC mismatch (got %08x, want %08x)", got, want)
	}
	return hdr[0], p, nil
}

// WireJob is one in-flight binary hot-verb frame. The connection loop
// decodes the request into recs, the front serves the records and builds
// the complete reply frame in buf — a daemon's session actor in place
// (runJob), a router through Finish — and the connection writer writes
// buf, signals wg, and returns the job to the pool: one pooled object rides
// the whole pipeline, so steady-state serving allocates nothing per frame.
type WireJob struct {
	out  chan<- *WireJob // the connection's writer channel
	wg   *sync.WaitGroup // the connection's in-flight counter
	tag  uint64          // request tag, echoed in the reply
	kind byte            // request frame kind (FrameAccess or FrameBatch)
	recs []trace.Record  // decoded request records, reused across frames
	buf  []byte          // reply frame, encoded in place, reused across frames
}

// Records returns the frame's decoded access records, in request order.
func (j *WireJob) Records() []trace.Record { return j.recs }

// Finish encodes the reply frame carrying results, one per record, and
// hands the job to its connection's writer; the caller must not touch j
// afterwards.
func (j *WireJob) Finish(results []AccessResult) {
	j.buf = AppendResultsReply(j.buf[:0], j.kind == FrameBatch, j.tag, results)
	j.out <- j
}

var wireJobPool = sync.Pool{New: func() any { return new(WireJob) }}

// AppendAccessRequest appends one complete access (single record) or batch
// request frame for sid. Record instruction ids are delta-encoded against
// the previous record in the frame (the first is absolute); PC and address
// are absolute uvarints.
func AppendAccessRequest(buf []byte, tag uint64, sid string, recs []trace.Record) []byte {
	kind := FrameBatch
	if len(recs) == 1 {
		kind = FrameAccess
	}
	start := len(buf)
	buf = beginFrame(buf, kind)
	buf = binary.AppendUvarint(buf, tag)
	buf = binary.AppendUvarint(buf, uint64(len(sid)))
	buf = append(buf, sid...)
	if kind == FrameBatch {
		buf = binary.AppendUvarint(buf, uint64(len(recs)))
	}
	var prev uint64
	for _, r := range recs {
		buf = binary.AppendUvarint(buf, r.InstrID-prev)
		prev = r.InstrID
		buf = binary.AppendUvarint(buf, r.PC)
		buf = binary.AppendUvarint(buf, r.Addr)
		var fl byte
		if r.IsLoad {
			fl = wireIsLoad
		}
		buf = append(buf, fl)
	}
	return finishFrame(buf, start)
}

// DecodeAccessRequest parses an access or batch request payload into its
// tag, session id, and records, appending to recs. The session id aliases
// the payload — copy it before the next frame read. Instruction-id deltas
// accumulate with uint64 wraparound, so non-monotone ids survive a round
// trip exactly (just less compactly). The payload must end exactly at the
// last record.
func DecodeAccessRequest(kind byte, p []byte, recs []trace.Record) (tag uint64, sid []byte, out []trace.Record, err error) {
	if kind != FrameAccess && kind != FrameBatch {
		return 0, nil, recs, fmt.Errorf("serve: frame kind 0x%02x is not an access request", kind)
	}
	if tag, p, err = readUvarint(p); err != nil {
		return 0, nil, recs, err
	}
	n, p, err := readUvarint(p)
	if err != nil {
		return 0, nil, recs, err
	}
	if n > uint64(len(p)) {
		return 0, nil, recs, fmt.Errorf("serve: wire session id length %d exceeds payload", n)
	}
	sid, p = p[:n], p[n:]
	count := uint64(1)
	if kind == FrameBatch {
		if count, p, err = readUvarint(p); err != nil {
			return 0, nil, recs, err
		}
		// Each record is at least 4 bytes, so a count beyond the payload
		// length is corruption — reject before sizing the record slice.
		if count > uint64(len(p)) {
			return 0, nil, recs, fmt.Errorf("serve: wire batch count %d exceeds payload", count)
		}
	}
	var prev uint64
	for i := uint64(0); i < count; i++ {
		var d, pc, addr uint64
		if d, p, err = readUvarint(p); err != nil {
			return 0, nil, recs, err
		}
		if pc, p, err = readUvarint(p); err != nil {
			return 0, nil, recs, err
		}
		if addr, p, err = readUvarint(p); err != nil {
			return 0, nil, recs, err
		}
		if len(p) == 0 {
			return 0, nil, recs, fmt.Errorf("serve: wire record %d missing flags byte", i)
		}
		fl := p[0]
		p = p[1:]
		prev += d
		recs = append(recs, trace.Record{
			InstrID: prev, PC: pc, Addr: addr, IsLoad: fl&wireIsLoad != 0,
		})
	}
	if len(p) != 0 {
		return 0, nil, recs, fmt.Errorf("serve: %d trailing bytes in wire frame", len(p))
	}
	return tag, sid, recs, nil
}

// beginResults begins the reply frame to an access (one result) or batch
// request of n records, up to where the results go.
func beginResults(buf []byte, batch bool, tag, seq uint64, n int) []byte {
	kind := FrameAccessReply
	if batch {
		kind = FrameBatchReply
	}
	buf = beginFrame(buf, kind)
	buf = binary.AppendUvarint(buf, tag)
	buf = binary.AppendUvarint(buf, seq)
	if batch {
		buf = binary.AppendUvarint(buf, uint64(n))
	}
	return buf
}

// appendResult is the one per-result encoder: flags, serving version, and
// the prefetched blocks. r.Seq is implied by the frame's first seq.
func appendResult(buf []byte, r AccessResult) []byte {
	var fl byte
	if r.Hit {
		fl |= wireHit
	}
	if r.Late {
		fl |= wireLate
	}
	buf = append(buf, fl)
	buf = binary.AppendUvarint(buf, r.Version)
	buf = binary.AppendUvarint(buf, uint64(len(r.Prefetches)))
	for _, pb := range r.Prefetches {
		buf = binary.AppendUvarint(buf, pb)
	}
	return buf
}

// AppendResultsReply appends a complete access/batch reply frame carrying
// results (an access reply when batch is false and len(results) == 1). The
// first result's Seq seeds the frame's sequence field; results must be
// seq-contiguous, exactly as a backend produced them.
func AppendResultsReply(buf []byte, batch bool, tag uint64, results []AccessResult) []byte {
	start := len(buf)
	var seq uint64
	if len(results) > 0 {
		seq = results[0].Seq
	}
	buf = beginResults(buf, batch, tag, seq, len(results))
	for i := range results {
		buf = appendResult(buf, results[i])
	}
	return finishFrame(buf, start)
}

// runJob steps every record of one binary frame on the actor goroutine and
// encodes the reply frame in place. The per-record work goes through
// session.step — the same path JSON and direct accesses take — which is what
// keeps wire results bit-identical to the other serving modes.
func (s *session) runJob(j *WireJob) {
	j.buf = beginResults(j.buf[:0], j.kind == FrameBatch, j.tag, s.seq+1, len(j.recs))
	for i := range j.recs {
		j.buf = appendResult(j.buf, s.step(j.recs[i]))
	}
	j.buf = finishFrame(j.buf, 0)
	j.out <- j
}

// AppendControlReply appends a complete control-reply frame carrying the
// JSON-encoded reply b (as produced by json.Marshal of a Reply).
func AppendControlReply(buf []byte, b []byte) []byte {
	return appendFrame(buf, FrameControlReply, b)
}

// AppendErrorReply appends a complete error-reply frame: the request tag (0
// when the failure is connection-level and the server will hang up after
// sending it) followed by the error text. With the interned sentinel errors
// this stays allocation-free on the unknown-session path.
func AppendErrorReply(buf []byte, tag uint64, err error) []byte {
	start := len(buf)
	buf = beginFrame(buf, FrameError)
	buf = binary.AppendUvarint(buf, tag)
	buf = append(buf, err.Error()...)
	return finishFrame(buf, start)
}
