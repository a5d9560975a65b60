package online

import (
	"io"

	"dart/internal/mat"
	"dart/internal/nn"
	"dart/internal/tabular"
)

// DefaultTabularConfig is the dart tier's serving tabularization default,
// used when Config.Dart is set without an explicit Config.Tabular: an LSH
// encoder (the O(log K) lookup the paper's latency model assumes) with
// small tables — the measured latency-optimal serving point, and the exact
// configuration BenchmarkDartInfer gates ("tables strictly faster than the
// student") in CI. dart-train's offline dart checkpoints use it too, so
// offline-published tables behave like the daemon's duty-cycle output.
func DefaultTabularConfig() tabular.Config {
	return tabular.Config{
		Kernel: tabular.KernelConfig{K: 8, C: 1, Kind: tabular.EncoderLSH},
		Seed:   7,
	}
}

// Table is one immutable published version of the tabularized predictor.
//
// Unlike nn models, a tabular.Hierarchy is immutable by construction once
// built (Query allocates per call and never writes kernel state), so a
// published Table may be queried from any number of goroutines concurrently
// — the serving batcher still batches for throughput, not for safety. The
// publisher hands over ownership: it must not mutate the hierarchy after
// Publish.
type Table struct {
	Version uint64
	H       *tabular.Hierarchy
	Meta    nn.CheckpointMeta
}

// TableStore is the versioned store for table-hierarchy serving classes:
// the same checkpoint/CRC/recovery/prune/rollback machinery as the nn Store
// (one shared generic core), with tabular checkpoint frames ("DARTTAB1"
// magic) as the on-disk format. A parameter checkpoint renamed into this
// store's namespace fails the magic check and is skipped during recovery,
// exactly as a cross-class nn rename fails the class stamp.
type TableStore struct {
	c *core[*tabular.Hierarchy]

	// Skipped lists checkpoint files that were present but rejected during
	// NewTableStore recovery, with the reason.
	Skipped []string
}

// tableCodec adapts hierarchy serialization to the store core. snapshot is
// the identity: hierarchies are immutable once built, and the tabularizer
// builds a fresh one per cycle, so there is nothing to defensively copy.
var tableCodec = codec[*tabular.Hierarchy]{
	snapshot: func(h *tabular.Hierarchy) (*tabular.Hierarchy, error) { return h, nil },
	save:     tabular.SaveCheckpoint,
	load: func(r io.Reader) (*tabular.Hierarchy, nn.CheckpointMeta, error) {
		return tabular.LoadCheckpoint(r)
	},
}

// NewTableStore builds a table store for one named class (conventionally
// DartClass), recovering the newest good checkpoint when dir holds any.
func NewTableStore(dir, class string) (*TableStore, error) {
	c, err := newCore(tableCodec, dir, class)
	if err != nil {
		return nil, err
	}
	return &TableStore{c: c, Skipped: c.skipped}, nil
}

// table converts a core revision to the exported Table form.
func (s *TableStore) table(r *rev[*tabular.Hierarchy]) *Table {
	if r == nil {
		return nil
	}
	return &Table{Version: r.version, H: r.val, Meta: r.meta}
}

// Load returns the current table version, or nil before the first Publish
// of an empty store. Lock-free; safe from any goroutine.
func (s *TableStore) Load() *Table { return s.table(s.c.load()) }

// Class names the model class this store versions.
func (s *TableStore) Class() string { return s.c.class }

// infer runs one batch through the current table; ok is false while the
// store is empty.
func (s *TableStore) infer(in *mat.Tensor) (*mat.Tensor, uint64, bool) {
	r := s.c.load()
	if r == nil {
		return nil, 0, false
	}
	return r.val.QueryBatch(in), r.version, true
}

// Publish assigns h the next version number, checkpoints it to disk (when
// configured), and atomically makes it the current version. Ownership of h
// transfers to the store: the caller must not mutate it afterwards.
func (s *TableStore) Publish(h *tabular.Hierarchy, meta nn.CheckpointMeta) (*Table, error) {
	r, err := s.c.publish(h, meta)
	if err != nil {
		return nil, err
	}
	return s.table(r), nil
}

// Rollback reverts the current pointer to the previously published version
// and drops the newest from the history (its checkpoint file is removed so
// a restart cannot resurrect it).
func (s *TableStore) Rollback() (*Table, error) {
	r, err := s.c.rollback()
	if err != nil {
		return nil, err
	}
	return s.table(r), nil
}

// Versions lists the published versions currently held, oldest first.
func (s *TableStore) Versions() []uint64 { return s.c.versions() }
