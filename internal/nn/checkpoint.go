package nn

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
)

// Checkpoint layout (all integers big-endian):
//
//	magic    [8]byte  "DARTCKP1" (nn parameters) / "DARTTAB1" (table hierarchies)
//	metaLen  uint32   length of the gob-encoded CheckpointMeta
//	bodyLen  uint32   length of the gob-encoded payload
//	crc      uint32   IEEE CRC-32 over meta ++ body
//	meta     []byte
//	body     []byte
//
// The CRC covers everything after the fixed header, so a truncated, bit-
// flipped, or garbage file is rejected with a descriptive error instead of
// being half-applied to a live model — the property the online model store
// relies on to fall back to the last good version. The frame (magic, header,
// CRC, gob CheckpointMeta) is shared with other checkpointed artifact kinds
// through WriteFrame/ReadFrame; each kind has its own magic, so a renamed
// file of another kind is rejected before its body is ever decoded
// (internal/tabular uses the frame for serialized hierarchies).
var checkpointMagic = [8]byte{'D', 'A', 'R', 'T', 'C', 'K', 'P', '1'}

// TableMagic tags table-hierarchy checkpoints (internal/tabular); declared
// here beside the nn magic so the two frame formats can never drift onto the
// same tag.
var TableMagic = [8]byte{'D', 'A', 'R', 'T', 'T', 'A', 'B', '1'}

// checkpointFormat is the current format revision, stamped into the metadata.
const checkpointFormat = 1

// maxCheckpointSection caps the declared meta/body lengths; ReadFrame never
// allocates more than the bytes actually present.
const maxCheckpointSection = 1 << 30

// CheckpointMeta is the header the online-learning subsystem stores alongside
// model parameters: enough to identify the snapshot without decoding it.
// Class was added for the distilled-student serving tier; gob decoding leaves
// it empty on checkpoints written before it existed, which the store treats
// as the default class.
type CheckpointMeta struct {
	Format   int     // checkpoint format revision (checkpointFormat)
	Model    string  // architecture label (Layer.Name of the saved model)
	Class    string  // model class ("" = online teacher, "student", "dart")
	Version  uint64  // model-store version number
	Source   uint64  // for derived artifacts (tabularized hierarchies): the source model's version
	Examples uint64  // cumulative training examples consumed (kernel-fitting examples for tables)
	Steps    uint64  // cumulative optimizer steps taken
	Loss     float64 // online loss EWMA at save time
	// DataBits is the stored table entry width for tabularized hierarchies
	// (8/16 quantized, 64 float). Zero on parameter checkpoints and on table
	// checkpoints written before quantization existed (read as float64).
	DataBits int
}

// SaveCheckpoint writes a CRC-validated parameter snapshot with a metadata
// header. meta.Format and meta.Model are filled in by this function.
func SaveCheckpoint(w io.Writer, m Layer, meta CheckpointMeta) error {
	meta.Model = m.Name()
	var bodyBuf bytes.Buffer
	if err := gob.NewEncoder(&bodyBuf).Encode(stateOf(m)); err != nil {
		return fmt.Errorf("nn: encode checkpoint params: %w", err)
	}
	return WriteFrame(w, checkpointMagic, meta, bodyBuf.Bytes())
}

// WriteFrame writes one checkpoint frame: the fixed header (magic, section
// lengths, CRC over meta ++ body), the gob-encoded metadata, and the raw
// body bytes. meta.Format is stamped by this function — the frame layout,
// not the payload kind, owns the format revision.
func WriteFrame(w io.Writer, magic [8]byte, meta CheckpointMeta, body []byte) error {
	meta.Format = checkpointFormat
	var metaBuf bytes.Buffer
	if err := gob.NewEncoder(&metaBuf).Encode(meta); err != nil {
		return fmt.Errorf("nn: encode checkpoint meta: %w", err)
	}
	crc := crc32.NewIEEE()
	crc.Write(metaBuf.Bytes())
	crc.Write(body)
	var hdr [20]byte
	copy(hdr[:8], magic[:])
	binary.BigEndian.PutUint32(hdr[8:12], uint32(metaBuf.Len()))
	binary.BigEndian.PutUint32(hdr[12:16], uint32(len(body)))
	binary.BigEndian.PutUint32(hdr[16:20], crc.Sum32())
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("nn: write checkpoint header: %w", err)
	}
	if _, err := w.Write(metaBuf.Bytes()); err != nil {
		return fmt.Errorf("nn: write checkpoint meta: %w", err)
	}
	if _, err := w.Write(body); err != nil {
		return fmt.Errorf("nn: write checkpoint body: %w", err)
	}
	return nil
}

// PeekCheckpoint reads and validates a checkpoint, returning its metadata
// without applying the parameters to a model. The CRC is verified before
// anything is decoded.
func PeekCheckpoint(r io.Reader) (CheckpointMeta, error) {
	meta, _, err := readCheckpoint(r)
	return meta, err
}

// ReadFrame validates one checkpoint frame against the expected magic and
// returns its metadata plus the raw body bytes. The CRC is verified before
// anything is decoded, so a truncated, bit-flipped, or garbage file (or a
// renamed frame of a different kind — wrong magic) is rejected whole.
func ReadFrame(r io.Reader, magic [8]byte) (CheckpointMeta, []byte, error) {
	var meta CheckpointMeta
	var hdr [20]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return meta, nil, fmt.Errorf("nn: truncated checkpoint header: %w", err)
	}
	if [8]byte(hdr[:8]) != magic {
		return meta, nil, fmt.Errorf("nn: not a %q checkpoint (bad magic %q)", magic[:], hdr[:8])
	}
	metaLen := binary.BigEndian.Uint32(hdr[8:12])
	bodyLen := binary.BigEndian.Uint32(hdr[12:16])
	wantCRC := binary.BigEndian.Uint32(hdr[16:20])
	if metaLen > maxCheckpointSection || bodyLen > maxCheckpointSection {
		return meta, nil, fmt.Errorf("nn: checkpoint declares implausible section sizes (meta %d, body %d): header is corrupt", metaLen, bodyLen)
	}
	// Read through a limit rather than into a buffer of the declared size:
	// the buffer grows only as bytes arrive, so a corrupt header on a short
	// file costs what the file holds, not up to 2 GiB.
	want := int64(metaLen) + int64(bodyLen)
	payload, err := io.ReadAll(io.LimitReader(r, want))
	if err != nil {
		return meta, nil, fmt.Errorf("nn: read checkpoint payload: %w", err)
	}
	if int64(len(payload)) != want {
		return meta, nil, fmt.Errorf("nn: truncated checkpoint (want %d payload bytes, got %d)", want, len(payload))
	}
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return meta, nil, fmt.Errorf("nn: checkpoint CRC mismatch (stored %08x, computed %08x): file is corrupt", wantCRC, got)
	}
	if err := gob.NewDecoder(bytes.NewReader(payload[:metaLen])).Decode(&meta); err != nil {
		return meta, nil, fmt.Errorf("nn: decode checkpoint meta: %w", err)
	}
	if meta.Format != checkpointFormat {
		return meta, nil, fmt.Errorf("nn: unsupported checkpoint format %d (this build reads format %d)", meta.Format, checkpointFormat)
	}
	return meta, payload[metaLen:], nil
}

// readCheckpoint validates a checkpoint and decodes its two sections.
func readCheckpoint(r io.Reader) (CheckpointMeta, modelState, error) {
	meta, body, err := ReadFrame(r, checkpointMagic)
	if err != nil {
		return meta, modelState{}, err
	}
	var st modelState
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&st); err != nil {
		return meta, modelState{}, fmt.Errorf("nn: decode checkpoint params: %w", err)
	}
	return meta, st, nil
}

// LoadCheckpoint validates a checkpoint written by SaveCheckpoint and
// restores its parameters into a model of the same architecture. The model
// is untouched unless validation (magic, CRC, format, names, shapes) passes.
func LoadCheckpoint(r io.Reader, m Layer) (CheckpointMeta, error) {
	meta, st, err := readCheckpoint(r)
	if err != nil {
		return meta, err
	}
	if err := restoreState(m, st); err != nil {
		return meta, err
	}
	return meta, nil
}
