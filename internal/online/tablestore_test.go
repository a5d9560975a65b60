package online

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dart/internal/mat"
	"dart/internal/nn"
	"dart/internal/tabular"
)

// tinyHierarchy tabularizes a tiny student over tinyData shapes; seed varies
// the fit data so successive versions hold genuinely different tables.
func tinyHierarchy(t testing.TB, seed int64) *tabular.Hierarchy {
	t.Helper()
	data := tinyData()
	net := tinyStudentArch(tinyTeacherCfg)()
	rng := rand.New(rand.NewSource(seed))
	fit := mat.NewTensor(16, data.History, data.InputDim())
	for i := range fit.Data {
		fit.Data[i] = rng.NormFloat64()
	}
	res := tabular.Tabularize(net.(*nn.Sequential), fit, tinyTabularCfg())
	return res.Hierarchy
}

// tinyTabularCfg is the tabularization config the dart-tier tests share.
func tinyTabularCfg() tabular.Config {
	return tabular.Config{
		Kernel: tabular.KernelConfig{K: 4, C: 1, Kind: tabular.EncoderLSH},
		Seed:   17,
	}
}

// tableProbe is a deterministic batch input over tinyData shapes.
func tableProbe(n int) *mat.Tensor {
	data := tinyData()
	rng := rand.New(rand.NewSource(99))
	in := mat.NewTensor(n, data.History, data.InputDim())
	for i := range in.Data {
		in.Data[i] = rng.NormFloat64()
	}
	return in
}

// sameTableBatches asserts two hierarchies answer a probe batch
// bit-identically.
func sameTableBatches(t *testing.T, want, got *tabular.Hierarchy) {
	t.Helper()
	probe := tableProbe(5)
	w, g := want.QueryBatch(probe), got.QueryBatch(probe)
	if len(w.Data) != len(g.Data) {
		t.Fatalf("output sizes differ: %d vs %d", len(w.Data), len(g.Data))
	}
	for i, v := range w.Data {
		if g.Data[i] != v {
			t.Fatalf("output[%d] differs: %v vs %v", i, v, g.Data[i])
		}
	}
}

func tableFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "dart-*.dart"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// TestTableStoreRoundTrip: publish → restart recovery preserves versions,
// metadata, the rollback history, and the tables themselves bit-identically.
func TestTableStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewTableStore(dir, DartClass)
	if err != nil {
		t.Fatal(err)
	}
	if s.Load() != nil {
		t.Fatal("empty store served a table")
	}
	for v := int64(1); v <= 3; v++ {
		if _, err := s.Publish(tinyHierarchy(t, v), nn.CheckpointMeta{Source: uint64(v)}); err != nil {
			t.Fatal(err)
		}
	}
	cur := s.Load()
	if cur.Version != 3 || cur.Meta.Class != DartClass || cur.Meta.Source != 3 {
		t.Fatalf("current %+v", cur.Meta)
	}

	r, err := NewTableStore(dir, DartClass)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Skipped()) != 0 {
		t.Fatalf("clean reopen skipped %v", r.Skipped())
	}
	rec := r.Load()
	if rec == nil || rec.Version != 3 || rec.Meta.Source != 3 {
		t.Fatalf("recovered %+v, want v3", rec)
	}
	if vs := r.Versions(); len(vs) != 3 || vs[0] != 1 || vs[2] != 3 {
		t.Fatalf("recovered history %v, want [1 2 3]", vs)
	}
	sameTableBatches(t, cur.Val, rec.Val)

	// Rollback works straight after a restart and removes the dropped file.
	back, err := r.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if back.Version != 2 || len(tableFiles(t, dir)) != 2 {
		t.Fatalf("rollback to v%d with %d files", back.Version, len(tableFiles(t, dir)))
	}
	r2, err := NewTableStore(dir, DartClass)
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.Load().Version; got != 2 {
		t.Fatalf("restart after rollback recovered v%d, want 2", got)
	}
}

// TestTableStoreCorruptionMatrix mirrors the nn store's corruption tests on
// the table format: the newest file is mangled (truncated / garbage / CRC
// flip / oversized header) and recovery must skip it with a descriptive
// reason, falling back to the previous good version.
func TestTableStoreCorruptionMatrix(t *testing.T) {
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
			if err := os.WriteFile(path, b[:len(b)/3], 0o644); err != nil {
				t.Fatal(err)
			}
		}, "truncated"},
		{"garbage", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte(strings.Repeat("not a table ", 32)), 0o644); err != nil {
				t.Fatal(err)
			}
		}, "bad magic"},
		{"crc-flip", func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)-4] ^= 0x20
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}, "CRC mismatch"},
		{"oversized-header", func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			binary.BigEndian.PutUint32(b[12:16], 1<<31) // implausible bodyLen
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}, "implausible"},
	}
	for _, tc := range corrupt {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := NewTableStore(dir, DartClass)
			if err != nil {
				t.Fatal(err)
			}
			v1, err := s.Publish(tinyHierarchy(t, 1), nn.CheckpointMeta{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Publish(tinyHierarchy(t, 2), nn.CheckpointMeta{}); err != nil {
				t.Fatal(err)
			}
			files := tableFiles(t, dir)
			tc.mangle(t, files[len(files)-1])

			r, err := NewTableStore(dir, DartClass)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Skipped()) != 1 || !strings.Contains(r.Skipped()[0], tc.wantErr) {
				t.Fatalf("skipped %v, want one entry mentioning %q", r.Skipped(), tc.wantErr)
			}
			rec := r.Load()
			if rec == nil || rec.Version != 1 {
				t.Fatalf("fell back to %+v, want v1", rec)
			}
			// The fallback really serves v1's table, not remnants of v2's.
			sameTableBatches(t, v1.Val, rec.Val)
		})
	}
}

// TestTableStoreCrossClassRename: a student nn checkpoint renamed into the
// dart namespace must be skipped (wrong magic), and a dart table renamed
// into the student namespace must be skipped too (wrong magic there) — the
// cross-class rename can never be served by either store.
func TestTableStoreCrossClassRename(t *testing.T) {
	dir := t.TempDir()

	// A real student-class nn checkpoint...
	sStore, err := NewModelStore(tinyStudentArch(tinyTeacherCfg), dir, StudentClass)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sStore.Publish(tinyStudentArch(tinyTeacherCfg)(), nn.CheckpointMeta{}); err != nil {
		t.Fatal(err)
	}
	// ...renamed into the dart table namespace.
	if err := os.Rename(
		filepath.Join(dir, "student-000000000001.dart"),
		filepath.Join(dir, "dart-000000000001.dart"),
	); err != nil {
		t.Fatal(err)
	}
	d, err := NewTableStore(dir, DartClass)
	if err != nil {
		t.Fatal(err)
	}
	if d.Load() != nil {
		t.Fatal("table store served a renamed nn checkpoint")
	}
	if len(d.Skipped()) != 1 || !strings.Contains(d.Skipped()[0], "bad magic") {
		t.Fatalf("skipped %v, want one bad-magic entry", d.Skipped())
	}

	// And the reverse: a dart table renamed into the student nn namespace.
	dir2 := t.TempDir()
	dStore, err := NewTableStore(dir2, DartClass)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dStore.Publish(tinyHierarchy(t, 1), nn.CheckpointMeta{}); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(
		filepath.Join(dir2, "dart-000000000001.dart"),
		filepath.Join(dir2, "student-000000000001.dart"),
	); err != nil {
		t.Fatal(err)
	}
	s2, err := NewModelStore(tinyStudentArch(tinyTeacherCfg), dir2, StudentClass)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Load() != nil {
		t.Fatal("student store served a renamed table checkpoint")
	}
	if len(s2.Skipped()) != 1 || !strings.Contains(s2.Skipped()[0], "bad magic") {
		t.Fatalf("skipped %v, want one bad-magic entry", s2.Skipped())
	}
}

// TestTableStorePrunes: table history and disk stay bounded like the nn
// store's.
func TestTableStorePrunes(t *testing.T) {
	dir := t.TempDir()
	s, err := NewTableStore(dir, DartClass)
	if err != nil {
		t.Fatal(err)
	}
	h := tinyHierarchy(t, 1) // identity snapshot: reuse one table across publishes
	for v := 0; v < keepVersions+3; v++ {
		if _, err := s.Publish(h, nn.CheckpointMeta{}); err != nil {
			t.Fatal(err)
		}
	}
	if vs := s.Versions(); len(vs) != keepVersions || vs[0] != 4 {
		t.Fatalf("history %v, want %d entries starting at v4", vs, keepVersions)
	}
	if files := tableFiles(t, dir); len(files) != keepVersions {
		t.Fatalf("%d table files on disk, want %d", len(files), keepVersions)
	}
}

// TestTableStoreInvalidClass: the filename-namespace rules apply to table
// stores too.
func TestTableStoreInvalidClass(t *testing.T) {
	for _, class := range []string{"bad-name", "a b", "x/y", "ckpt"} {
		if _, err := NewTableStore("", class); err == nil {
			t.Fatalf("class %q accepted", class)
		}
	}
}
