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
)

// Model is one immutable published version of the online predictor.
//
// Immutability is by convention and enforced by construction: Publish deep-
// copies the trainer's shadow into a fresh network, and nothing writes Net's
// parameters afterwards. Net.Forward stores nothing either, so the serving
// batchers, the distiller and the tabularizer all run the published network
// directly, from any goroutine.
type Model struct {
	Version uint64
	Net     nn.Layer
	Meta    nn.CheckpointMeta
}

// keepVersions bounds the in-memory rollback history and the on-disk
// checkpoint count; older versions are pruned as new ones are published.
const keepVersions = 8

// codec tells the generic store core how to handle one payload kind: how to
// snapshot a source into an immutable published value, and how to write and
// read its checkpoint frame. The core owns everything payload-agnostic —
// versioning, the atomic current pointer, bounded rollback history, atomic
// temp+rename checkpoint writes, newest-good-version recovery with corrupt-
// file fallback, pruning — so every serving class (nn teacher/student,
// tabular dart) shares one battle-tested machinery.
type codec[P any] struct {
	// snapshot turns the caller's (possibly still-mutating) source into the
	// immutable value the store publishes. nn models deep-copy parameters;
	// hierarchies are immutable by construction, so theirs is the identity.
	snapshot func(src P) (P, error)
	save     func(w io.Writer, v P, meta nn.CheckpointMeta) error
	load     func(r io.Reader) (P, nn.CheckpointMeta, error)
}

// rev is one published version of a payload.
type rev[P any] struct {
	version uint64
	val     P
	meta    nn.CheckpointMeta
}

// core is the class-agnostic versioned snapshot store: an atomic pointer to
// the current immutable revision (lock-free load on the serving path), a
// bounded rollback history, and — when a directory is configured — one CRC-
// validated checkpoint file per published version, written atomically (temp
// file + rename) so a crash can never leave a half-written current
// checkpoint.
type core[P any] struct {
	cd     codec[P]
	dir    string // "" disables checkpointing
	class  string // model class ("" = default/teacher)
	prefix string // checkpoint filename prefix for this class

	cur atomic.Pointer[rev[P]]

	mu      sync.Mutex // serialises publish/rollback and guards history/next
	history []*rev[P]  // published versions, oldest first
	next    uint64     // next version number to assign

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

// newCore builds a core for one class over the given codec. When dir is
// non-empty it is created if needed and scanned for checkpoints: every valid
// one (up to keepVersions, newest first) is loaded into the rollback
// history, the newest becomes the current version (continuity across daemon
// restarts — including rollback straight after a restart), and corrupt or
// mismatched files are recorded in skipped and skipped over. A core may
// start empty — load returns nil until the first publish.
func newCore[P any](cd codec[P], dir, class string) (*core[P], error) {
	prefix, err := classPrefix(class)
	if err != nil {
		return nil, err
	}
	c := &core[P]{cd: cd, dir: dir, class: class, prefix: prefix, next: 1}
	if dir == "" {
		return c, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("online: checkpoint dir: %w", err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, prefix+"-*.dart"))
	if err != nil {
		return nil, err
	}
	sort.Sort(sort.Reverse(sort.StringSlice(paths))) // newest version first
	var hist []*rev[P]
	for _, path := range paths {
		if len(hist) == keepVersions {
			break
		}
		r, err := c.readCheckpoint(path)
		if err != nil {
			c.skipped = append(c.skipped, fmt.Sprintf("%s: %v", filepath.Base(path), err))
			continue
		}
		hist = append(hist, r)
	}
	if len(hist) > 0 {
		for i, j := 0, len(hist)-1; i < j; i, j = i+1, j-1 {
			hist[i], hist[j] = hist[j], hist[i] // oldest first, as publish keeps it
		}
		c.history = hist
		newest := hist[len(hist)-1]
		c.next = newest.version + 1
		c.cur.Store(newest)
	}
	return c, nil
}

// readCheckpoint loads and validates one checkpoint file.
func (c *core[P]) readCheckpoint(path string) (*rev[P], error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	val, meta, err := c.cd.load(f)
	if err != nil {
		return nil, err
	}
	if meta.Class != c.class {
		// A renamed or misplaced file from another class: the payload loaded
		// fine (shapes can coincide) but serving it as this class would be
		// silent model confusion.
		return nil, fmt.Errorf("online: checkpoint is class %q, store is class %q", meta.Class, c.class)
	}
	return &rev[P]{version: meta.Version, val: val, meta: meta}, nil
}

// load returns the current revision, or nil before the first publish of an
// empty core. Lock-free; safe from any goroutine.
func (c *core[P]) load() *rev[P] { return c.cur.Load() }

// version is the current revision's number, 0 before the first publish.
func (c *core[P]) version() uint64 {
	if r := c.cur.Load(); r != nil {
		return r.version
	}
	return 0
}

func (c *core[P]) skippedFiles() []string { return c.skipped }

// publish snapshots src via the codec, assigns it the next version number,
// checkpoints it to disk (when configured), and atomically makes it the
// current version.
func (c *core[P]) publish(src P, meta nn.CheckpointMeta) (*rev[P], error) {
	val, err := c.cd.snapshot(src)
	if err != nil {
		return nil, fmt.Errorf("online: publish: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	meta.Version = c.next
	meta.Class = c.class
	r := &rev[P]{version: c.next, val: val, meta: meta}
	if c.dir != "" {
		if err := c.writeCheckpoint(r, meta); err != nil {
			return nil, err
		}
	}
	c.next++
	c.history = append(c.history, r)
	if len(c.history) > keepVersions {
		drop := c.history[:len(c.history)-keepVersions]
		c.history = append([]*rev[P](nil), c.history[len(drop):]...)
		for _, old := range drop {
			if c.dir != "" {
				os.Remove(c.checkpointPath(old.version))
			}
		}
	}
	c.cur.Store(r)
	return r, nil
}

// writeCheckpoint persists one version atomically: write to a temp file in
// the same directory, fsync-free rename over the final name.
func (c *core[P]) writeCheckpoint(r *rev[P], meta nn.CheckpointMeta) error {
	path := c.checkpointPath(r.version)
	tmp, err := os.CreateTemp(c.dir, c.prefix+"-*.tmp")
	if err != nil {
		return fmt.Errorf("online: checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := c.cd.save(tmp, r.val, meta); err != nil {
		tmp.Close()
		return fmt.Errorf("online: checkpoint v%d: %w", r.version, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("online: checkpoint v%d: %w", r.version, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("online: checkpoint v%d: %w", r.version, err)
	}
	return nil
}

// checkpointPath names version v's file; the fixed-width version keeps
// lexicographic order equal to version order for recovery scans, and the
// class prefix keeps the per-class scans disjoint.
func (c *core[P]) checkpointPath(v uint64) string {
	return filepath.Join(c.dir, fmt.Sprintf("%s-%012d.dart", c.prefix, v))
}

// rollback reverts the current pointer to the previously published version
// and drops the newest from the history (its checkpoint file is removed so
// a restart cannot resurrect it). Future publishes continue with fresh,
// strictly increasing version numbers.
func (c *core[P]) rollback() (*rev[P], error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.history) < 2 {
		return nil, fmt.Errorf("online: no previous version to roll back to (history %d)", len(c.history))
	}
	bad := c.history[len(c.history)-1]
	c.history = c.history[:len(c.history)-1]
	prev := c.history[len(c.history)-1]
	if c.dir != "" {
		os.Remove(c.checkpointPath(bad.version))
	}
	c.cur.Store(prev)
	return prev, nil
}

// versions lists the published versions currently held, oldest first.
func (c *core[P]) versions() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]uint64, len(c.history))
	for i, r := range c.history {
		out[i] = r.version
	}
	return out
}

// Store is the versioned model store for nn-backed serving classes (the
// online teacher and the distilled student): the generic core specialised to
// nn.Layer payloads, whose snapshot deep-copies parameters into a fresh
// network and whose checkpoints are nn.SaveCheckpoint frames.
type Store struct {
	c *core[nn.Layer]

	// Skipped lists checkpoint files that were present but rejected during
	// NewStore recovery (corrupt, truncated, wrong architecture), with the
	// reason — the store fell back past them to the newest good version.
	Skipped []string
}

// NewStore builds a store for the default model class (the online teacher)
// over the given architecture factory.
func NewStore(fresh func() nn.Layer, dir string) (*Store, error) {
	return NewClassStore(fresh, dir, "")
}

// NewClassStore builds a store for one named model class. Classes are fully
// independent version sequences sharing a checkpoint directory: each class
// writes files under its own prefix, so the distilled-student tier's
// snapshots can live beside the teacher's without either recovery scan
// touching the other's files. The class is stamped into every checkpoint's
// metadata and verified on recovery, so renamed cross-class files are
// skipped rather than served.
func NewClassStore(fresh func() nn.Layer, dir, class string) (*Store, error) {
	if fresh == nil {
		return nil, fmt.Errorf("online: store needs an architecture factory")
	}
	cd := codec[nn.Layer]{
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
	}
	c, err := newCore(cd, dir, class)
	if err != nil {
		return nil, err
	}
	return &Store{c: c, Skipped: c.skipped}, nil
}

// model converts a core revision to the exported Model form.
func (s *Store) model(r *rev[nn.Layer]) *Model {
	if r == nil {
		return nil
	}
	return &Model{Version: r.version, Net: r.val, Meta: r.meta}
}

// Load returns the current model version, or nil before the first Publish
// of an empty store. Lock-free; safe from any goroutine.
func (s *Store) Load() *Model { return s.model(s.c.load()) }

// Class names the model class this store versions ("" = default/teacher).
func (s *Store) Class() string { return s.c.class }

// infer runs one batch through the current model; ok is false while the
// store is empty. Safe from any goroutine.
func (s *Store) infer(in *mat.Tensor) (*mat.Tensor, uint64, bool) {
	r := s.c.load()
	if r == nil {
		return nil, 0, false
	}
	return r.val.Forward(in), r.version, true
}

// Publish deep-copies src into a fresh immutable network, assigns it the
// next version number, checkpoints it to disk (when configured), and
// atomically makes it the current version. src itself is only read, so the
// caller may keep training it.
func (s *Store) Publish(src nn.Layer, meta nn.CheckpointMeta) (*Model, error) {
	r, err := s.c.publish(src, meta)
	if err != nil {
		return nil, err
	}
	return s.model(r), nil
}

// Rollback reverts the current pointer to the previously published version
// and drops the newest from the history (its checkpoint file is removed so
// a restart cannot resurrect it).
func (s *Store) Rollback() (*Model, error) {
	r, err := s.c.rollback()
	if err != nil {
		return nil, err
	}
	return s.model(r), nil
}

// Versions lists the published versions currently held, oldest first.
func (s *Store) Versions() []uint64 { return s.c.versions() }
