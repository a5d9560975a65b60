package online

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"dart/internal/mat"
	"dart/internal/nn"
	"dart/internal/pq"
	"dart/internal/tabular"
)

// quantTinyHierarchy is tinyHierarchy at an explicit stored entry width.
func quantTinyHierarchy(t testing.TB, seed int64, bits int) *tabular.Hierarchy {
	t.Helper()
	data := tinyData()
	net := tinyStudentArch(tinyTeacherCfg)()
	rng := rand.New(rand.NewSource(seed))
	fit := mat.NewTensor(16, data.History, data.InputDim())
	for i := range fit.Data {
		fit.Data[i] = rng.NormFloat64()
	}
	cfg := tinyTabularCfg()
	cfg.Kernel.DataBits = bits
	res := tabular.Tabularize(net.(*nn.Sequential), fit, cfg)
	return res.Hierarchy
}

// TestDartBudgetUsesActualStoredWidth: the policy's storage-budget admission
// must run on the width the tables actually store. A budget sitting between
// the int8 and float64 modelled costs of the same structure rejects the
// float hierarchy and admits the quantized one — under the old hardcoded
// 32-bit pricing both sides would have been priced identically and the
// float table would have been admitted ~2x over its real footprint.
func TestDartBudgetUsesActualStoredWidth(t *testing.T) {
	hf := quantTinyHierarchy(t, 1, 0)
	hq := quantTinyHierarchy(t, 1, 8)
	cf, cq := hf.Cost(), hq.Cost()
	if cq.StorageBytes() >= cf.StorageBytes() {
		t.Fatalf("quantized cost %d B not below float cost %d B", cq.StorageBytes(), cf.StorageBytes())
	}
	budget := (cf.StorageBytes() + cq.StorageBytes()) / 2
	p := NewPolicy(PolicyConfig{Budgets: map[string]Budget{
		DartClass: {StorageBytes: budget},
	}}, DartClass)
	if ok, reason := p.budgetCheck(DartClass, cf.LatencyCycles, cf.StorageBytes()); ok {
		t.Fatalf("float table (%d B) admitted under %d B budget", cf.StorageBytes(), budget)
	} else if !strings.Contains(reason, "storage") {
		t.Fatalf("rejection reason %q does not mention storage", reason)
	}
	if ok, reason := p.budgetCheck(DartClass, cq.LatencyCycles, cq.StorageBytes()); !ok {
		t.Fatalf("int8 table (%d B) rejected under %d B budget: %s", cq.StorageBytes(), budget, reason)
	}
	// Sanity on the modelled numbers themselves: they must track the measured
	// footprint, or the admission decision above is theater.
	for _, h := range []*tabular.Hierarchy{hf, hq} {
		modelled, measured := h.Cost().StorageBytes(), h.MeasuredStorageBytes()
		if d := modelled - measured; d < 0 {
			d = -d
		} else if float64(d) > 0.10*float64(measured) {
			t.Fatalf("modelled %d B vs measured %d B (>10%% apart)", modelled, measured)
		}
	}
}

// Struct clones of the tabular wire layout (matching field names; gob decodes
// structurally) used to craft a checkpoint whose encoder carries malformed
// dimensions — the store must skip it during recovery, not panic in the
// encoder constructors.
type craftedHierarchyState struct {
	Layers []craftedLayerState
}

type craftedLayerState struct {
	Kind    string
	In, Out int
	SeqT    int
	Cfg     tabular.KernelConfig
	Enc     any
	Table   []float64
}

// TestTableStoreSkipsMalformedEncoderDims extends the store-layer corruption
// matrix: the newest checkpoint file is replaced with a frame-valid (magic
// and CRC intact) table whose serialized encoder has a zero K dimension.
// Recovery must skip it with the pq validation error and fall back to the
// previous good version.
func TestTableStoreSkipsMalformedEncoderDims(t *testing.T) {
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

	// Craft the malformed state: a real LSH encoder's marshalled form with K
	// overwritten to zero (the state type is unexported, so the mutation goes
	// through reflection on its exported fields).
	enc, err := pq.MarshalEncoder(pq.NewLSHEncoder(8, 1, 4, rand.New(rand.NewSource(1))))
	if err != nil {
		t.Fatal(err)
	}
	rv := reflect.New(reflect.TypeOf(enc)).Elem()
	rv.Set(reflect.ValueOf(enc))
	f := rv.FieldByName("K")
	if !f.IsValid() || !f.CanSet() {
		t.Fatal("encoder state has no settable K field")
	}
	f.SetInt(0)
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(craftedHierarchyState{Layers: []craftedLayerState{{
		Kind: "linear", In: 8, Out: 4, SeqT: 2,
		Cfg:   tabular.KernelConfig{K: 4, C: 1, Kind: tabular.EncoderLSH},
		Enc:   rv.Interface(),
		Table: make([]float64, 16),
	}}}); err != nil {
		t.Fatal(err)
	}
	var frame bytes.Buffer
	if err := nn.WriteFrame(&frame, nn.TableMagic, nn.CheckpointMeta{Class: DartClass, Version: 2}, body.Bytes()); err != nil {
		t.Fatal(err)
	}
	files := tableFiles(t, dir)
	if err := os.WriteFile(files[len(files)-1], frame.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := NewTableStore(dir, DartClass)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Skipped()) != 1 || !strings.Contains(r.Skipped()[0], "pq:") {
		t.Fatalf("skipped %v, want one entry with the pq dims error", r.Skipped())
	}
	rec := r.Load()
	if rec == nil || rec.Version != 1 {
		t.Fatalf("fell back to %+v, want v1", rec)
	}
	sameTableBatches(t, v1.Val, rec.Val)
}

// TestQuantizedTableStoreRoundTrip: int8 tables survive the versioned store's
// publish → restart recovery bit-identically, and the recovered metadata
// carries the stored width.
func TestQuantizedTableStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewTableStore(dir, DartClass)
	if err != nil {
		t.Fatal(err)
	}
	h := quantTinyHierarchy(t, 3, 8)
	if _, err := s.Publish(h, nn.CheckpointMeta{}); err != nil {
		t.Fatal(err)
	}
	r, err := NewTableStore(dir, DartClass)
	if err != nil {
		t.Fatal(err)
	}
	rec := r.Load()
	if rec == nil {
		t.Fatal("no table recovered")
	}
	if rec.Meta.DataBits != 8 {
		t.Fatalf("recovered meta DataBits=%d, want 8", rec.Meta.DataBits)
	}
	sameTableBatches(t, h, rec.Val)
}
