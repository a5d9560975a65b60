package serve

import (
	"bufio"
	"bytes"
	"slices"
	"testing"
)

// FuzzWireFrame throws arbitrary byte streams at the one request decoder the
// way a server reads them after the handshake: FrameReader.Next, then
// DecodeAccessRequest on every frame. Nothing may panic, and every request
// that decodes must re-encode through AppendAccessRequest to the same tag,
// session id and records. The committed corpus under testdata/fuzz starts
// from the byte examples of docs/PROTOCOL.md and replays as an ordinary
// test; `make fuzz` digs for more.
func FuzzWireFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte) {
		fr := NewFrameReader(bufio.NewReader(bytes.NewReader(stream)))
		for {
			kind, p, err := fr.Next()
			if err != nil {
				return
			}
			tag, sid, recs, err := DecodeAccessRequest(kind, p, nil)
			if err != nil {
				continue
			}
			frame := AppendAccessRequest(nil, tag, string(sid), recs)
			tag2, sid2, recs2, err := DecodeAccessRequest(frame[0], frame[wireHeaderLen:], nil)
			if err != nil || tag2 != tag || !bytes.Equal(sid2, sid) || !slices.Equal(recs2, recs) {
				t.Fatalf("request tag %d sid %q %d records re-encoded as tag %d sid %q %d records (%v)",
					tag, sid, len(recs), tag2, sid2, len(recs2), err)
			}
		}
	})
}
