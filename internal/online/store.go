package online

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"dart/internal/mat"
	"dart/internal/nn"
	"dart/internal/tabular"
)

// Published is one immutable published version of a serving class: an nn
// network (teacher, student) or a table hierarchy (dart).
//
// Immutability is by convention and enforced by construction: Publish deep-
// copies an nn trainer's shadow into a fresh network, and a hierarchy is
// immutable once built, so nothing writes Val afterwards. Neither
// nn.Layer.Forward nor Hierarchy.QueryBatch stores anything, so the serving
// batchers, the distiller and the tabularizer all run the published value
// directly, from any goroutine.
type Published[P any] struct {
	Version uint64
	Val     P
	Meta    nn.CheckpointMeta
}

// keepVersions bounds the in-memory rollback history and the on-disk
// checkpoint count; older versions are pruned as new ones are published.
const keepVersions = 8

// codec tells the store how to handle one payload kind: how to snapshot a
// source into an immutable published value, how to write and read its
// checkpoint frame, and how to run one inference batch through it. The store
// owns everything payload-agnostic — versioning, the atomic current pointer,
// bounded rollback history, atomic temp+rename checkpoint writes, newest-
// good-version recovery with corrupt-file fallback, pruning — so every
// serving class (nn teacher/student, tabular dart) shares one machinery.
type codec[P any] struct {
	// snapshot turns the caller's (possibly still-mutating) source into the
	// immutable value the store publishes. nn models deep-copy parameters;
	// hierarchies are immutable by construction, so theirs is the identity.
	snapshot func(src P) (P, error)
	save     func(w io.Writer, v P, meta nn.CheckpointMeta) error
	load     func(r io.Reader) (P, nn.CheckpointMeta, error)
	infer    func(v P, in *mat.Tensor) *mat.Tensor
}

// Store is the versioned snapshot store of one serving class: an atomic
// pointer to the current immutable version (lock-free load on the serving
// path), a bounded rollback history, and — when a directory is configured —
// one CRC-validated checkpoint file per published version, written
// atomically (temp file + rename) so a crash can never leave a half-written
// current checkpoint. NewModelStore builds one over nn networks, whose
// checkpoints are nn.SaveCheckpoint frames; NewTableStore one over table
// hierarchies, whose checkpoints are tabular "DARTTAB1" frames, so a
// parameter checkpoint renamed into a table store's namespace fails the
// magic check and is skipped during recovery, exactly as a cross-class nn
// rename fails the class stamp.
type Store[P any] struct {
	cd     codec[P]
	dir    string // "" disables checkpointing
	class  string // model class ("" = default/teacher)
	prefix string // checkpoint filename prefix for this class

	cur atomic.Pointer[Published[P]]

	mu      sync.Mutex      // serialises publish/rollback and guards history/next
	history []*Published[P] // published versions, oldest first
	next    uint64          // next version number to assign

	// skipped lists checkpoint files that were present but rejected during
	// recovery (corrupt, truncated, wrong architecture, wrong class), with
	// the reason — recovery fell back past them to the newest good version.
	skipped []string
}

// classPrefix validates a class name and maps it to its checkpoint filename
// prefix. Classes are fully independent version sequences sharing a
// checkpoint directory: each writes files under its own prefix ("ckpt-" for
// the default class, the class name otherwise), so one class's recovery scan
// never touches another's files.
func classPrefix(class string) (string, error) {
	if class == "" {
		return "ckpt", nil
	}
	if strings.ContainsAny(class, "-/\\* .") || class == "ckpt" {
		// "ckpt" is the default class's filename prefix; allowing it as a
		// named class would collide both stores on the same files.
		return "", fmt.Errorf("online: invalid model class %q", class)
	}
	return class, nil
}

// NewModelStore builds a store over nn networks for one model class ("" is
// the default class, the online teacher) and the given architecture
// factory. Its snapshot deep-copies parameters into a fresh network, so the
// caller may keep training the source it publishes.
func NewModelStore(fresh func() nn.Layer, dir, class string) (*Store[nn.Layer], error) {
	if fresh == nil {
		return nil, fmt.Errorf("online: store needs an architecture factory")
	}
	return newStore(codec[nn.Layer]{
		snapshot: func(src nn.Layer) (nn.Layer, error) {
			net := fresh()
			if err := nn.CopyParams(net, src); err != nil {
				return nil, err
			}
			return net, nil
		},
		save: nn.SaveCheckpoint,
		load: func(r io.Reader) (nn.Layer, nn.CheckpointMeta, error) {
			net := fresh()
			meta, err := nn.LoadCheckpoint(r, net)
			return net, meta, err
		},
		infer: nn.Layer.Forward,
	}, dir, class)
}

// NewTableStore builds a store over table hierarchies for one named class
// (conventionally DartClass). Its snapshot is the identity: hierarchies are
// immutable once built, so Publish takes ownership of the one it is handed
// and the caller must not mutate it afterwards.
func NewTableStore(dir, class string) (*Store[*tabular.Hierarchy], error) {
	return newStore(codec[*tabular.Hierarchy]{
		snapshot: func(h *tabular.Hierarchy) (*tabular.Hierarchy, error) { return h, nil },
		save:     tabular.SaveCheckpoint,
		load:     tabular.LoadCheckpoint,
		infer:    (*tabular.Hierarchy).QueryBatch,
	}, dir, class)
}

// newStore builds a store for one class over the given codec. Classes are
// fully independent version sequences sharing a checkpoint directory: the
// class picks the checkpoint prefix and is stamped into every checkpoint's
// metadata and verified on recovery, so renamed cross-class files are
// skipped rather than served. When dir is non-empty it is created if needed
// and scanned for checkpoints: every valid one (up to keepVersions, newest
// first) is loaded into the rollback history, the newest becomes the
// current version (continuity across daemon restarts — including rollback
// straight after a restart), and corrupt or mismatched files are recorded in
// Skipped and skipped over. A store may start empty — Load returns nil until
// the first publish.
func newStore[P any](cd codec[P], dir, class string) (*Store[P], error) {
	prefix, err := classPrefix(class)
	if err != nil {
		return nil, err
	}
	s := &Store[P]{cd: cd, dir: dir, class: class, prefix: prefix, next: 1}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("online: checkpoint dir: %w", err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, prefix+"-*.dart"))
	if err != nil {
		return nil, err
	}
	sort.Sort(sort.Reverse(sort.StringSlice(paths))) // newest version first
	var hist []*Published[P]
	for _, path := range paths {
		if len(hist) == keepVersions {
			break
		}
		r, err := s.readCheckpoint(path)
		if err != nil {
			s.skipped = append(s.skipped, fmt.Sprintf("%s: %v", filepath.Base(path), err))
			continue
		}
		hist = append(hist, r)
	}
	if len(hist) > 0 {
		for i, j := 0, len(hist)-1; i < j; i, j = i+1, j-1 {
			hist[i], hist[j] = hist[j], hist[i] // oldest first, as Publish keeps it
		}
		s.history = hist
		newest := hist[len(hist)-1]
		s.next = newest.Version + 1
		s.cur.Store(newest)
	}
	return s, nil
}

// readCheckpoint loads and validates one checkpoint file.
func (s *Store[P]) readCheckpoint(path string) (*Published[P], error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	val, meta, err := s.cd.load(f)
	if err != nil {
		return nil, err
	}
	if meta.Class != s.class {
		// A renamed or misplaced file from another class: the payload loaded
		// fine (shapes can coincide) but serving it as this class would be
		// silent model confusion.
		return nil, fmt.Errorf("online: checkpoint is class %q, store is class %q", meta.Class, s.class)
	}
	return &Published[P]{Version: meta.Version, Val: val, Meta: meta}, nil
}

// Load returns the current version, or nil before the first Publish of an
// empty store. Lock-free; safe from any goroutine.
func (s *Store[P]) Load() *Published[P] { return s.cur.Load() }

// Version is the current version number, 0 before the first Publish.
func (s *Store[P]) Version() uint64 {
	if r := s.cur.Load(); r != nil {
		return r.Version
	}
	return 0
}

// Class names the model class this store versions ("" = default/teacher).
func (s *Store[P]) Class() string { return s.class }

// Skipped lists checkpoint files that were present but rejected during
// recovery (corrupt, truncated, wrong architecture, wrong class or frame),
// with the reason — the store fell back past them to the newest good
// version.
func (s *Store[P]) Skipped() []string { return s.skipped }

// infer runs one batch through the current version; ok is false while the
// store is empty. Safe from any goroutine.
func (s *Store[P]) infer(in *mat.Tensor) (*mat.Tensor, uint64, bool) {
	r := s.cur.Load()
	if r == nil {
		return nil, 0, false
	}
	return s.cd.infer(r.Val, in), r.Version, true
}

// Publish snapshots src via the codec, assigns it the next version number,
// checkpoints it to disk (when configured), and atomically makes it the
// current version.
func (s *Store[P]) Publish(src P, meta nn.CheckpointMeta) (*Published[P], error) {
	val, err := s.cd.snapshot(src)
	if err != nil {
		return nil, fmt.Errorf("online: publish: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	meta.Version = s.next
	meta.Class = s.class
	r := &Published[P]{Version: s.next, Val: val, Meta: meta}
	if s.dir != "" {
		if err := s.writeCheckpoint(r); err != nil {
			return nil, err
		}
	}
	s.next++
	s.history = append(s.history, r)
	if len(s.history) > keepVersions {
		drop := s.history[:len(s.history)-keepVersions]
		s.history = append([]*Published[P](nil), s.history[len(drop):]...)
		for _, old := range drop {
			if s.dir != "" {
				os.Remove(s.checkpointPath(old.Version))
			}
		}
	}
	s.cur.Store(r)
	return r, nil
}

// writeCheckpoint persists one version atomically: write to a temp file in
// the same directory, fsync-free rename over the final name.
func (s *Store[P]) writeCheckpoint(r *Published[P]) error {
	path := s.checkpointPath(r.Version)
	tmp, err := os.CreateTemp(s.dir, s.prefix+"-*.tmp")
	if err != nil {
		return fmt.Errorf("online: checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := s.cd.save(tmp, r.Val, r.Meta); err != nil {
		tmp.Close()
		return fmt.Errorf("online: checkpoint v%d: %w", r.Version, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("online: checkpoint v%d: %w", r.Version, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("online: checkpoint v%d: %w", r.Version, err)
	}
	return nil
}

// checkpointPath names version v's file; the fixed-width version keeps
// lexicographic order equal to version order for recovery scans, and the
// class prefix keeps the per-class scans disjoint.
func (s *Store[P]) checkpointPath(v uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s-%012d.dart", s.prefix, v))
}

// Rollback reverts the current pointer to the previously published version
// and drops the newest from the history (its checkpoint file is removed so
// a restart cannot resurrect it). Future publishes continue with fresh,
// strictly increasing version numbers.
func (s *Store[P]) Rollback() (*Published[P], error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.history) < 2 {
		return nil, fmt.Errorf("online: no previous version to roll back to (history %d)", len(s.history))
	}
	bad := s.history[len(s.history)-1]
	s.history = s.history[:len(s.history)-1]
	prev := s.history[len(s.history)-1]
	if s.dir != "" {
		os.Remove(s.checkpointPath(bad.Version))
	}
	s.cur.Store(prev)
	return prev, nil
}

// Versions lists the published versions currently held, oldest first.
func (s *Store[P]) Versions() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]uint64, len(s.history))
	for i, r := range s.history {
		out[i] = r.Version
	}
	return out
}
