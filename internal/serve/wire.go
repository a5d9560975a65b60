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
// The steady-state path allocates nothing per access: a pooled wireJob rides
// the whole pipeline (connection reader → session actor → connection
// writer), the request records are decoded into the job's reused slice, and
// the reply frame is encoded in place into the job's reused buffer.

// wireMagic is the negotiation banner: a client opens a binary connection by
// sending these 9 bytes ("DARTWIRE" + the protocol version digit) before the
// first frame; the server echoes them to accept. Any other first byte on a
// fresh connection selects the line-delimited JSON protocol.
const wireMagic = "DARTWIRE1"

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
	frameControl      = 0x01 // JSON Request payload: any non-hot verb
	frameAccess       = 0x02 // one varint-packed access record
	frameBatch        = 0x03 // count-prefixed varint-packed access records
	frameError        = 0x7f // reply: tag uvarint + error message bytes
	frameControlReply = 0x81 // JSON Reply payload
	frameAccessReply  = 0x82 // tag, seq, one access result
	frameBatchReply   = 0x83 // tag, first seq, count, access results
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

// wireReader reads frames from a connection, reusing one payload buffer
// across reads (the returned payload is valid until the next call).
type wireReader struct {
	br  *bufio.Reader
	buf []byte
}

// next reads one frame and verifies its CRC. io.EOF is returned bare only at
// a clean frame boundary; every other failure wraps what went wrong.
func (r *wireReader) next() (byte, []byte, error) {
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

// wireJob is one in-flight binary hot-verb frame. The connection reader
// decodes the request into recs, the session actor steps the records and
// builds the complete reply frame in buf, and the connection writer writes
// buf, signals wg, and returns the job to the pool — one pooled object rides
// the whole pipeline, so steady-state serving allocates nothing per frame.
type wireJob struct {
	out  chan<- *wireJob // the connection's writer channel
	wg   *sync.WaitGroup // the connection's in-flight counter
	tag  uint64          // request tag, echoed in the reply
	kind byte            // reply frame kind (frameAccessReply or frameBatchReply)
	recs []trace.Record  // decoded request records, reused across frames
	buf  []byte          // reply frame, encoded in place, reused across frames
}

var wireJobPool = sync.Pool{New: func() any { return new(wireJob) }}

// appendWireRequest appends one complete access (single record, kind
// frameAccess) or batch (count-prefixed, kind frameBatch) request frame.
// Record instruction ids are delta-encoded against the previous record in
// the frame (the first is absolute); PC and address are absolute uvarints.
func appendWireRequest(buf []byte, kind byte, tag uint64, sid string, recs []trace.Record) []byte {
	start := len(buf)
	buf = beginFrame(buf, kind)
	buf = binary.AppendUvarint(buf, tag)
	buf = binary.AppendUvarint(buf, uint64(len(sid)))
	buf = append(buf, sid...)
	if kind == frameBatch {
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

// decodeJob parses an access or batch request payload into j, returning the
// session id — which aliases p and is only valid until the connection's next
// frame read. Instruction-id deltas accumulate with uint64 wraparound, so
// non-monotone ids survive a round trip exactly (just less compactly).
func decodeJob(kind byte, p []byte, j *wireJob) ([]byte, error) {
	j.recs = j.recs[:0]
	tag, p, err := readUvarint(p)
	if err != nil {
		return nil, err
	}
	j.tag = tag
	n, p, err := readUvarint(p)
	if err != nil {
		return nil, err
	}
	if n > uint64(len(p)) {
		return nil, fmt.Errorf("serve: wire session id length %d exceeds payload", n)
	}
	sid := p[:n]
	p = p[n:]
	count := uint64(1)
	j.kind = frameAccessReply
	if kind == frameBatch {
		j.kind = frameBatchReply
		count, p, err = readUvarint(p)
		if err != nil {
			return nil, err
		}
		// Each record is at least 4 bytes, so a count beyond the payload
		// length is corruption — reject before sizing the record slice.
		if count > uint64(len(p)) {
			return nil, fmt.Errorf("serve: wire batch count %d exceeds payload", count)
		}
	}
	if j.recs, err = parseWireRecords(p, count, j.recs); err != nil {
		return nil, err
	}
	return sid, nil
}

// parseWireRecords decodes count varint-packed access records off p into
// recs, requiring the payload to end exactly at the last record. Instruction-
// id deltas accumulate with uint64 wraparound (see decodeJob).
func parseWireRecords(p []byte, count uint64, recs []trace.Record) ([]trace.Record, error) {
	var prev uint64
	var err error
	for i := uint64(0); i < count; i++ {
		var d, pc, addr uint64
		if d, p, err = readUvarint(p); err != nil {
			return recs, err
		}
		if pc, p, err = readUvarint(p); err != nil {
			return recs, err
		}
		if addr, p, err = readUvarint(p); err != nil {
			return recs, err
		}
		if len(p) == 0 {
			return recs, fmt.Errorf("serve: wire record %d missing flags byte", i)
		}
		fl := p[0]
		p = p[1:]
		prev += d
		recs = append(recs, trace.Record{
			InstrID: prev, PC: pc, Addr: addr, IsLoad: fl&wireIsLoad != 0,
		})
	}
	if len(p) != 0 {
		return recs, fmt.Errorf("serve: %d trailing bytes in wire frame", len(p))
	}
	return recs, nil
}

// runJob steps every record of one binary frame on the actor goroutine and
// encodes the reply frame in place. The per-record work goes through
// session.step — the same path JSON and direct accesses take — which is what
// keeps wire results bit-identical to the other serving modes.
func (s *session) runJob(j *wireJob) {
	j.buf = beginFrame(j.buf[:0], j.kind)
	j.buf = binary.AppendUvarint(j.buf, j.tag)
	j.buf = binary.AppendUvarint(j.buf, s.seq+1)
	if j.kind == frameBatchReply {
		j.buf = binary.AppendUvarint(j.buf, uint64(len(j.recs)))
	}
	for i := range j.recs {
		st := s.step(j.recs[i])
		var fl byte
		if st.Hit {
			fl |= wireHit
		}
		if st.Late {
			fl |= wireLate
		}
		j.buf = append(j.buf, fl)
		j.buf = binary.AppendUvarint(j.buf, s.ver)
		j.buf = binary.AppendUvarint(j.buf, uint64(len(st.Prefetches)))
		for _, pb := range st.Prefetches {
			j.buf = binary.AppendUvarint(j.buf, pb)
		}
	}
	j.buf = finishFrame(j.buf, 0)
	j.out <- j
}

// appendErrorFrame appends a complete error-reply frame: the request tag
// (0 when unattributable) followed by the error text. With the interned
// sentinel errors this stays allocation-free on the unknown-session path.
func appendErrorFrame(buf []byte, tag uint64, err error) []byte {
	start := len(buf)
	buf = beginFrame(buf, frameError)
	buf = binary.AppendUvarint(buf, tag)
	buf = append(buf, err.Error()...)
	return finishFrame(buf, start)
}
