package tabular

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"dart/internal/nn"
)

// Hierarchy checkpoints reuse the nn checkpoint frame (fixed header, gob
// CheckpointMeta, CRC-32 over meta ++ body — see internal/nn/checkpoint.go)
// with the table magic "DARTTAB1" and a gob-encoded hierarchyState body.
// The distinct magic means a parameter checkpoint renamed into a table
// store's namespace (or vice versa) is rejected at the header, before any
// body bytes are decoded; the CRC rejects truncated, bit-flipped, and
// garbage files whole, so the versioned table store can always fall back to
// its newest good version.

// hierarchyModelName is the architecture label stamped into table
// checkpoint metadata (the CheckpointMeta.Model slot nn checkpoints fill
// with Layer.Name).
const hierarchyModelName = "tabular.Hierarchy"

// SaveCheckpoint writes a CRC-validated hierarchy snapshot with a metadata
// header. meta.Format, meta.Model, and meta.DataBits are filled in by this
// function.
func SaveCheckpoint(w io.Writer, h *Hierarchy, meta nn.CheckpointMeta) error {
	meta.Model = hierarchyModelName
	meta.DataBits = h.DataBits()
	st, err := marshalLayers(h.Layers)
	if err != nil {
		return err
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(hierarchyState{Layers: st}); err != nil {
		return fmt.Errorf("tabular: encode hierarchy checkpoint: %w", err)
	}
	return nn.WriteFrame(w, nn.TableMagic, meta, body.Bytes())
}

// LoadCheckpoint validates a table checkpoint written by SaveCheckpoint and
// reconstructs its hierarchy. Nothing is decoded unless the frame (magic,
// sizes, CRC, format) validates.
func LoadCheckpoint(r io.Reader) (*Hierarchy, nn.CheckpointMeta, error) {
	meta, body, err := nn.ReadFrame(r, nn.TableMagic)
	if err != nil {
		return nil, meta, err
	}
	var st hierarchyState
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&st); err != nil {
		return nil, meta, fmt.Errorf("tabular: decode hierarchy checkpoint: %w", err)
	}
	layers, err := unmarshalLayers(st.Layers)
	if err != nil {
		return nil, meta, err
	}
	return &Hierarchy{Layers: layers}, meta, nil
}
