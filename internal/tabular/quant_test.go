package tabular

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dart/internal/mat"
	"dart/internal/nn"
)

// quantHierarchy is ckptHierarchy at an explicit stored entry width (0 keeps
// the float64 default). Same net, fit set, and kernel seeds, so hierarchies
// built at different widths share their encoders and differ only in table
// representation.
func quantHierarchy(t testing.TB, bits int) (*Hierarchy, *mat.Tensor) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	net := nn.NewTransformerPredictor(nn.TransformerConfig{
		T: 4, DIn: 5, DModel: 8, DFF: 16, DOut: 6, Heads: 2, Layers: 1,
	}, rng)
	fit := mat.NewTensor(24, 4, 5)
	for i := range fit.Data {
		fit.Data[i] = rng.NormFloat64()
	}
	res := Tabularize(net, fit, Config{
		Kernel: KernelConfig{K: 4, C: 1, Kind: EncoderLSH, DataBits: bits},
		Seed:   9,
	})
	probe := mat.NewTensor(7, 4, 5)
	for i := range probe.Data {
		probe.Data[i] = rng.NormFloat64()
	}
	return res.Hierarchy, probe
}

// TestEncoderKindRoundTrip: String and ParseEncoderKind are exact inverses
// over the defined kinds, and unknown kinds no longer alias to "linear" —
// String used to fall through to the kmeans branch for any unrecognized
// value, so a corrupted config would round-trip into a real encoder.
func TestEncoderKindRoundTrip(t *testing.T) {
	for _, k := range []EncoderKind{EncoderKMeans, EncoderLSH} {
		got, err := ParseEncoderKind(k.String())
		if err != nil {
			t.Fatalf("ParseEncoderKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Fatalf("round trip %v -> %q -> %v", k, k.String(), got)
		}
	}
	// "kmeans" is an accepted spelling of the nearest-prototype encoder.
	if k, err := ParseEncoderKind("kmeans"); err != nil || k != EncoderKMeans {
		t.Fatalf("ParseEncoderKind(kmeans) = %v, %v", k, err)
	}
	for _, bad := range []EncoderKind{EncoderKind(2), EncoderKind(99), EncoderKind(-1)} {
		s := bad.String()
		if s == "linear" || s == "lsh" {
			t.Fatalf("unknown kind %d stringifies to valid name %q", int(bad), s)
		}
		if _, err := ParseEncoderKind(s); err == nil {
			t.Fatalf("ParseEncoderKind accepted unknown-kind string %q", s)
		}
	}
	for _, bad := range []string{"", "LSH", "int8", "encoderkind(7)"} {
		if _, err := ParseEncoderKind(bad); err == nil {
			t.Fatalf("ParseEncoderKind accepted %q", bad)
		}
	}
}

// TestLinearKernelQuantClose: a single quantized kernel tracks its float
// twin tightly — int8 within ~1% of the output range, int16 three orders
// tighter. (Full-hierarchy int8 closeness is NOT asserted: re-encoding
// quantized activations can flip discrete prototype indices between layers,
// so hierarchy-level int8 fidelity is an accuracy property, tested against
// prediction quality at the serving layer, not raw float closeness.)
func TestLinearKernelQuantClose(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := nn.NewLinear("q", 16, 32, rng)
	train := mat.NewTensor(64, 4, 16)
	for i := range train.Data {
		train.Data[i] = rng.NormFloat64()
	}
	for _, tc := range []struct {
		bits int
		eps  float64
	}{{8, 0.02}, {16, 2e-4}} {
		kf := NewLinearKernel(l, train, KernelConfig{K: 8, C: 2, Kind: EncoderLSH}, rand.New(rand.NewSource(7)))
		kq := NewLinearKernel(l, train, KernelConfig{K: 8, C: 2, Kind: EncoderLSH, DataBits: tc.bits}, rand.New(rand.NewSource(7)))
		var maxd float64
		for s := 0; s < 16; s++ {
			x := mat.New(4, 16)
			for i := range x.Data {
				x.Data[i] = rng.NormFloat64()
			}
			a, b := kf.Query(x), kq.Query(x)
			for i := range a.Data {
				if d := math.Abs(a.Data[i] - b.Data[i]); d > maxd {
					maxd = d
				}
			}
		}
		if maxd > tc.eps {
			t.Fatalf("bits=%d: max |float - quant| = %v > %v", tc.bits, maxd, tc.eps)
		}
	}
}

// TestInt16HierarchyCloseToFloat: at 16 bits the quantization step is fine
// enough that even the full hierarchy — re-encoding quantized activations at
// every layer — stays within 1e-3 of the float tables end to end.
func TestInt16HierarchyCloseToFloat(t *testing.T) {
	hf, probe := quantHierarchy(t, 0)
	hq, _ := quantHierarchy(t, 16)
	a, b := hf.QueryBatch(probe), hq.QueryBatch(probe)
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > 1e-3 {
			t.Fatalf("output[%d]: float %v vs int16 %v (diff %v)", i, a.Data[i], b.Data[i], d)
		}
	}
}

// TestModelledStorageMatchesMeasured: the Cost() storage model must agree
// with the bytes the tables actually occupy — within 10%, per layer and for
// the whole hierarchy, at every stored width. This is the regression test
// for the bug where Cost priced entries at a nominal 32 bits regardless of
// what the table stored.
func TestModelledStorageMatchesMeasured(t *testing.T) {
	for _, bits := range []int{0, 8, 16} {
		h, _ := quantHierarchy(t, bits)
		for i, l := range h.Layers {
			measured := MeasuredStorageBytes(l)
			if measured == 0 {
				continue // relu/meanpool: nothing stored, nothing modelled
			}
			modelled := l.Cost().StorageBytes()
			if d := math.Abs(float64(modelled - measured)); d > 0.10*float64(measured) {
				t.Errorf("bits=%d layer %d (%s): modelled %d B vs measured %d B (>10%% off)",
					bits, i, l.Name(), modelled, measured)
			}
		}
		modelled, measured := h.Cost().StorageBytes(), h.MeasuredStorageBytes()
		if d := math.Abs(float64(modelled - measured)); d > 0.10*float64(measured) {
			t.Errorf("bits=%d hierarchy: modelled %d B vs measured %d B (>10%% off)",
				bits, modelled, measured)
		}
	}
}

// TestQuantStorageShrinks: quantized hierarchies actually occupy less space,
// with the int8 payload at least 2x under float even on this tiny fixture
// (where per-row metadata is at its proportionally worst; the serving-scale
// ratio is gated in CI at >= 4x).
func TestQuantStorageShrinks(t *testing.T) {
	hf, _ := quantHierarchy(t, 0)
	h8, _ := quantHierarchy(t, 8)
	h16, _ := quantHierarchy(t, 16)
	f, q8, q16 := hf.MeasuredStorageBytes(), h8.MeasuredStorageBytes(), h16.MeasuredStorageBytes()
	if !(q8 < q16 && q16 < f) {
		t.Fatalf("width ordering violated: int8 %d, int16 %d, float %d bytes", q8, q16, f)
	}
	if float64(f)/float64(q8) < 2 {
		t.Fatalf("int8 %d B not >=2x under float %d B", q8, f)
	}
	if hf.DataBits() != 64 || h8.DataBits() != 8 || h16.DataBits() != 16 {
		t.Fatalf("DataBits = %d/%d/%d, want 64/8/16", hf.DataBits(), h8.DataBits(), h16.DataBits())
	}
}

// TestQuantizedCheckpointRoundTrip: quantized hierarchies survive the
// DARTTAB1 frame bit-identically and stamp their stored width into the
// checkpoint metadata.
func TestQuantizedCheckpointRoundTrip(t *testing.T) {
	for _, bits := range []int{8, 16} {
		h, probe := quantHierarchy(t, bits)
		var buf bytes.Buffer
		if err := SaveCheckpoint(&buf, h, nn.CheckpointMeta{Class: "dart", Version: 2}); err != nil {
			t.Fatal(err)
		}
		got, meta, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		if meta.DataBits != bits {
			t.Fatalf("bits=%d: meta stamped DataBits=%d", bits, meta.DataBits)
		}
		sameBatches(t, h, got, probe)
	}
	// Float hierarchies stamp 64 so operators can tell the widths apart.
	h, _ := quantHierarchy(t, 0)
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, h, nn.CheckpointMeta{Class: "dart", Version: 2}); err != nil {
		t.Fatal(err)
	}
	_, meta, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if meta.DataBits != 64 {
		t.Fatalf("float checkpoint stamped DataBits=%d, want 64", meta.DataBits)
	}
}

// Legacy layer states: the serialized layout as it existed before quantized
// payloads (no Quant/QKQuant/QKVQuant fields). Gob decodes by field name, so
// encoding these reproduces the exact wire shape of a pre-quantization
// checkpoint.
type legacyHierarchyState struct {
	Layers []legacyLayerState
}

type legacyLayerState struct {
	Kind           string
	In, Out        int
	SeqT           int
	Cfg            KernelConfig
	Enc            any
	Table          []float64
	D, H, Dh       int
	WQ, WK, WV, WO *legacyLayerState
	Heads          []legacyAttnState
	Dim            int
	Gamma, Beta    []float64
	Eps            float64
	T              int
	Emb            []float64
	Inner          []legacyLayerState
}

type legacyAttnState struct {
	T, Dk    int
	Mode     SoftmaxMode
	Cfg      KernelConfig
	EncQ     any
	EncK     any
	EncS     any
	EncV     any
	QKTable  []float64
	QKVTable []float64
	DenTable []float64
	ExpShift float64
}

func toLegacyLayer(t *testing.T, st layerState) legacyLayerState {
	t.Helper()
	if st.Quant != nil {
		t.Fatal("legacy conversion given a quantized layer")
	}
	out := legacyLayerState{
		Kind: st.Kind, In: st.In, Out: st.Out, SeqT: st.SeqT,
		Cfg: st.Cfg, Enc: st.Enc, Table: st.Table,
		D: st.D, H: st.H, Dh: st.Dh,
		Dim: st.Dim, Gamma: st.Gamma, Beta: st.Beta, Eps: st.Eps,
		T: st.T, Emb: st.Emb,
	}
	for _, p := range []struct {
		src *layerState
		dst **legacyLayerState
	}{{st.WQ, &out.WQ}, {st.WK, &out.WK}, {st.WV, &out.WV}, {st.WO, &out.WO}} {
		if p.src != nil {
			l := toLegacyLayer(t, *p.src)
			*p.dst = &l
		}
	}
	for _, h := range st.Heads {
		if h.QKQuant != nil || h.QKVQuant != nil {
			t.Fatal("legacy conversion given a quantized attention head")
		}
		out.Heads = append(out.Heads, legacyAttnState{
			T: h.T, Dk: h.Dk, Mode: h.Mode, Cfg: h.Cfg,
			EncQ: h.EncQ, EncK: h.EncK, EncS: h.EncS, EncV: h.EncV,
			QKTable: h.QKTable, QKVTable: h.QKVTable,
			DenTable: h.DenTable, ExpShift: h.ExpShift,
		})
	}
	for _, inner := range st.Inner {
		out.Inner = append(out.Inner, toLegacyLayer(t, inner))
	}
	return out
}

// frameTable wraps a gob body in the DARTTAB1 checkpoint frame.
func frameTable(t *testing.T, body any, meta nn.CheckpointMeta) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(body); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := nn.WriteFrame(&buf, nn.TableMagic, meta, b.Bytes()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestOldFloatCheckpointStillLoads: a checkpoint serialized with the
// pre-quantization layer states — no quant fields in the wire format at all —
// must load into a working float hierarchy with bit-identical queries.
func TestOldFloatCheckpointStillLoads(t *testing.T) {
	h, probe := quantHierarchy(t, 0)
	states, err := marshalLayers(h.Layers)
	if err != nil {
		t.Fatal(err)
	}
	legacy := legacyHierarchyState{}
	for _, st := range states {
		legacy.Layers = append(legacy.Layers, toLegacyLayer(t, st))
	}
	raw := frameTable(t, legacy, nn.CheckpointMeta{
		Model: hierarchyModelName, Class: "dart", Version: 1,
	})
	got, meta, err := LoadCheckpoint(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("legacy checkpoint rejected: %v", err)
	}
	// Pre-quantization checkpoints never stamped a width; the zero value is
	// the marker that distinguishes them from explicit 64-bit float stamps.
	if meta.DataBits != 0 {
		t.Fatalf("legacy meta decoded DataBits=%d, want 0", meta.DataBits)
	}
	sameBatches(t, h, got, probe)
}

// mutateEncoderDims copies a marshalled encoder state and overwrites one of
// its exported dimension fields — simulating a checkpoint whose encoder
// geometry was corrupted in storage.
func mutateEncoderDims(t *testing.T, enc any, field string, val int64) any {
	t.Helper()
	rv := reflect.New(reflect.TypeOf(enc)).Elem()
	rv.Set(reflect.ValueOf(enc))
	f := rv.FieldByName(field)
	if !f.IsValid() || !f.CanSet() {
		t.Fatalf("encoder state has no settable field %q", field)
	}
	f.SetInt(val)
	return rv.Interface()
}

// TestCheckpointRejectsCorruptQuantAndEncoderState: the DARTTAB1 corruption
// matrix for the new payloads. Quantized tables with inconsistent geometry,
// undefined widths, or contradictory float/quant presence, tables of either
// width whose geometry disagrees with their kernel, msa blocks with a
// missing or non-linear projection — and encoder states with zero,
// negative, or indivisible dimensions — must all fail LoadCheckpoint with an
// error, never panic or half-decode.
func TestCheckpointRejectsCorruptQuantAndEncoderState(t *testing.T) {
	h, _ := quantHierarchy(t, 8)
	states, err := marshalLayers(h.Layers)
	if err != nil {
		t.Fatal(err)
	}
	// Locate a linear kernel, an MSA and a positional embedding state to
	// corrupt.
	linIdx, msaIdx, posIdx := -1, -1, -1
	for i, st := range states {
		if st.Kind == "linear" && linIdx < 0 {
			linIdx = i
		}
		if st.Kind == "posembed" {
			posIdx = i
		}
		if st.Kind == "residual" && msaIdx < 0 {
			for _, inner := range st.Inner {
				if inner.Kind == "msa" {
					msaIdx = i
				}
			}
		}
	}
	if linIdx < 0 || msaIdx < 0 || posIdx < 0 {
		t.Fatalf("fixture lacks linear (%d), msa (%d) or posembed (%d) states", linIdx, msaIdx, posIdx)
	}
	msa := func(st []layerState) *layerState {
		for i := range st[msaIdx].Inner {
			if st[msaIdx].Inner[i].Kind == "msa" {
				return &st[msaIdx].Inner[i]
			}
		}
		return nil
	}
	// floats stands a float64 table one entry shorter than q's payload in
	// for q, the shape of a float checkpoint truncated in storage.
	floats := func(q *quantState) []float64 { return make([]float64, len(q.Q8)-1) }

	// deepCopy reserializes the state list so each case mutates its own copy
	// (layerState shares slices with the live hierarchy).
	deepCopy := func() []layerState {
		st, err := marshalLayers(h.Layers)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	cases := []struct {
		name    string
		corrupt func([]layerState)
		wantErr string
	}{
		{"undefined quant width", func(st []layerState) {
			st[linIdx].Quant.Bits = 12
		}, "width 12 bits unsupported"},
		{"truncated quant payload", func(st []layerState) {
			st[linIdx].Quant.Q8 = st[linIdx].Quant.Q8[:len(st[linIdx].Quant.Q8)-1]
		}, "payload"},
		{"metadata length mismatch", func(st []layerState) {
			st[linIdx].Quant.Zero = st[linIdx].Quant.Zero[:len(st[linIdx].Quant.Zero)-1]
		}, "invalid"},
		{"both payload widths set", func(st []layerState) {
			st[linIdx].Quant.Q16 = make([]int16, 4)
		}, "payload"},
		{"non-positive row length", func(st []layerState) {
			st[linIdx].Quant.RowLen = 0
		}, "invalid"},
		{"float and quant tables both present", func(st []layerState) {
			st[linIdx].Table = make([]float64, 8)
		}, "exactly one"},
		{"neither table present", func(st []layerState) {
			st[linIdx].Quant = nil
		}, "exactly one"},
		{"attention head half-quantized", func(st []layerState) {
			for i, inner := range st[msaIdx].Inner {
				if inner.Kind == "msa" {
					st[msaIdx].Inner[i].Heads[0].QKVQuant = nil
				}
			}
		}, "exactly one"},
		{"truncated float linear table", func(st []layerState) {
			st[linIdx].Table, st[linIdx].Quant = floats(st[linIdx].Quant), nil
		}, "float table"},
		{"truncated float QK table", func(st []layerState) {
			h := &msa(st).Heads[0]
			h.QKTable, h.QKQuant = floats(h.QKQuant), nil
			h.QKVTable, h.QKVQuant = make([]float64, len(h.QKVQuant.Q8)), nil
		}, "attention QK float table"},
		{"truncated posembed Emb", func(st []layerState) {
			st[posIdx].Emb, st[posIdx].Quant = floats(st[posIdx].Quant), nil
		}, "posembed float table"},
		{"quantized table with wrong row length", func(st []layerState) {
			// Self-consistent (twice the rows at half the length) but not
			// the kernel's Out-wide rows.
			q := st[linIdx].Quant
			q.RowLen /= 2
			q.Scale = append(append([]float64(nil), q.Scale...), q.Scale...)
			q.Zero = append(append([]int32(nil), q.Zero...), q.Zero...)
		}, "invalid"},
		{"msa with nil WQ", func(st []layerState) {
			msa(st).WQ = nil
		}, "no WQ projection"},
		{"msa WQ is a layernorm state", func(st []layerState) {
			msa(st).WQ = &layerState{Kind: "layernorm", Dim: 8, Gamma: make([]float64, 8), Beta: make([]float64, 8)}
		}, "want linear"},
		{"msa with no heads", func(st []layerState) {
			msa(st).H, msa(st).Heads = 0, nil
		}, "0 heads"},
		{"encoder zero K", func(st []layerState) {
			st[linIdx].Enc = mutateEncoderDims(t, st[linIdx].Enc, "K", 0)
		}, "pq:"},
		{"encoder negative D", func(st []layerState) {
			st[linIdx].Enc = mutateEncoderDims(t, st[linIdx].Enc, "D", -8)
		}, "pq:"},
		{"encoder C not dividing D", func(st []layerState) {
			st[linIdx].Enc = mutateEncoderDims(t, st[linIdx].Enc, "C", 3)
		}, "pq:"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("LoadCheckpoint panicked: %v", r)
				}
			}()
			st := deepCopy()
			tc.corrupt(st)
			raw := frameTable(t, hierarchyState{Layers: st}, nn.CheckpointMeta{Class: "dart", Version: 1})
			_, _, err := LoadCheckpoint(bytes.NewReader(raw))
			if err == nil {
				t.Fatal("corrupt checkpoint loaded")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}
