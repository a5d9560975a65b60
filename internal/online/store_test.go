package online

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dart/internal/nn"
)

// publishN publishes n distinct versions into a fresh store at dir.
func publishN(t *testing.T, dir string, n int) *Store[nn.Layer] {
	t.Helper()
	data := tinyData()
	s, err := NewModelStore(tinyArch(data), dir, "")
	if err != nil {
		t.Fatal(err)
	}
	src := tinyArch(data)()
	for v := 1; v <= n; v++ {
		for _, p := range src.Params() {
			for i := range p.W.Data {
				p.W.Data[i] = float64(v) + float64(i)*0.001
			}
		}
		if _, err := s.Publish(src, nn.CheckpointMeta{Steps: uint64(v)}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func ckptFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "ckpt-*.dart"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

func reopen(t *testing.T, dir string) *Store[nn.Layer] {
	t.Helper()
	s, err := NewModelStore(tinyArch(tinyData()), dir, "")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStorePublishLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := publishN(t, dir, 3)
	if got := s.Load().Version; got != 3 {
		t.Fatalf("current v%d, want 3", got)
	}
	if vs := s.Versions(); len(vs) != 3 || vs[0] != 1 || vs[2] != 3 {
		t.Fatalf("versions %v", vs)
	}

	r := reopen(t, dir)
	if len(r.Skipped()) != 0 {
		t.Fatalf("clean reopen skipped files: %v", r.Skipped())
	}
	m := r.Load()
	if m == nil || m.Version != 3 || m.Meta.Steps != 3 {
		t.Fatalf("recovered %+v, want v3", m)
	}
	// Every valid checkpoint is recovered into the rollback history, so
	// rollback works straight after a restart.
	if vs := r.Versions(); len(vs) != 3 || vs[0] != 1 || vs[2] != 3 {
		t.Fatalf("recovered history %v, want [1 2 3]", vs)
	}
	back, err := r.Rollback()
	if err != nil {
		t.Fatalf("rollback after restart: %v", err)
	}
	if back.Version != 2 {
		t.Fatalf("rollback after restart landed on v%d, want 2", back.Version)
	}
	want := s.Load().Val.Params()
	got := m.Val.Params()
	for i := range want {
		for j, v := range want[i].W.Data {
			if got[i].W.Data[j] != v {
				t.Fatalf("recovered param %q[%d] differs", want[i].Name, j)
			}
		}
	}
}

// TestStoreFallsBackPastCorruption: a corrupted newest checkpoint must be
// skipped with a descriptive reason and the previous good version recovered.
func TestStoreFallsBackPastCorruption(t *testing.T) {
	corrupt := []struct {
		name    string
		mangle  func(t *testing.T, path string)
		wantErr string
	}{
		{"truncated", func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}, "truncated"},
		{"garbage", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte(strings.Repeat("not a checkpoint ", 32)), 0o644); err != nil {
				t.Fatal(err)
			}
		}, "bad magic"},
		{"crc-flip", func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)-3] ^= 0x10
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}, "CRC mismatch"},
	}
	for _, tc := range corrupt {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			publishN(t, dir, 3)
			files := ckptFiles(t, dir)
			newest := files[len(files)-1]
			tc.mangle(t, newest)

			r := reopen(t, dir)
			if len(r.Skipped()) != 1 {
				t.Fatalf("skipped %v, want exactly the corrupt file", r.Skipped())
			}
			if !strings.Contains(r.Skipped()[0], tc.wantErr) {
				t.Fatalf("skip reason %q does not mention %q", r.Skipped()[0], tc.wantErr)
			}
			m := r.Load()
			if m == nil || m.Version != 2 {
				t.Fatalf("fell back to %+v, want v2", m)
			}
			// The fallback version's weights are v2's, not v3's.
			if got := m.Val.Params()[0].W.Data[0]; got != 2.0 {
				t.Fatalf("recovered weight %v, want v2's 2.0", got)
			}
		})
	}
}

// TestStoreAllCorrupt: when every checkpoint is bad the store starts empty
// rather than serving garbage.
func TestStoreAllCorrupt(t *testing.T) {
	dir := t.TempDir()
	publishN(t, dir, 2)
	for _, f := range ckptFiles(t, dir) {
		if err := os.WriteFile(f, []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r := reopen(t, dir)
	if r.Load() != nil {
		t.Fatal("store recovered a model from corrupt files")
	}
	if len(r.Skipped()) != 2 {
		t.Fatalf("skipped %v, want both files", r.Skipped())
	}
	// Publishing into the recovered-empty store starts over at v1.
	src := tinyArch(tinyData())()
	m, err := r.Publish(src, nn.CheckpointMeta{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != 1 {
		t.Fatalf("first publish after total corruption gave v%d, want 1", m.Version)
	}
}

// TestStorePrunesOldVersions: history and disk stay bounded.
func TestStorePrunesOldVersions(t *testing.T) {
	dir := t.TempDir()
	s := publishN(t, dir, keepVersions+4)
	if vs := s.Versions(); len(vs) != keepVersions || vs[0] != 5 {
		t.Fatalf("history %v, want %d entries starting at v5", vs, keepVersions)
	}
	if files := ckptFiles(t, dir); len(files) != keepVersions {
		t.Fatalf("%d checkpoint files on disk, want %d", len(files), keepVersions)
	}
}

// TestStoreRollbackRemovesCheckpoint: the rolled-back version must not
// resurrect on restart.
func TestStoreRollbackRemovesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := publishN(t, dir, 3)
	m, err := s.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != 2 || s.Load().Version != 2 {
		t.Fatalf("rollback landed on v%d", m.Version)
	}
	r := reopen(t, dir)
	if got := r.Load().Version; got != 2 {
		t.Fatalf("restart after rollback recovered v%d, want 2", got)
	}
}
