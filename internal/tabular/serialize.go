package tabular

import (
	"encoding/gob"
	"fmt"
	"io"

	"dart/internal/pq"
)

// Serialized hierarchy layout: a flat list of typed layer states. Residual
// blocks store their inner layers recursively.
type hierarchyState struct {
	Layers []layerState
}

type layerState struct {
	Kind string // "linear" | "msa" | "layernorm" | "sigmoid" | "relu" | "meanpool" | "posembed" | "residual"

	// linear kernel: exactly one of Table (float64) and Quant is set.
	// Checkpoints written before quantization existed carry only Table and
	// decode Quant as nil, so old float tables keep loading unchanged.
	// (posembed states reuse Quant the same way, against Emb below.)
	In, Out int
	SeqT    int
	Cfg     KernelConfig
	Enc     any
	Table   []float64
	Quant   *quantState

	// msa kernel
	D, H, Dh       int
	WQ, WK, WV, WO *layerState
	Heads          []attnState

	// layernorm / posembed
	Dim         int
	Gamma, Beta []float64
	Eps         float64
	T           int
	Emb         []float64

	// residual
	Inner []layerState
}

type attnState struct {
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
	// Quantized forms of the QK/QKV tables; nil in float checkpoints.
	QKQuant  *quantState
	QKVQuant *quantState
}

// quantState is the serialized form of a quantized rowTable: the integer
// payload at its stored width plus the per-row affine metadata.
type quantState struct {
	Bits   int
	RowLen int
	Q8     []int8
	Q16    []int16
	Scale  []float64
	Zero   []int32
}

// marshalTable splits a row table into its two serialized forms: the float64
// entries of a 64-bit table, or the payload of a quantized one.
func marshalTable(t *rowTable) ([]float64, *quantState) {
	if t.bits == 64 {
		return t.f64, nil
	}
	return nil, &quantState{
		Bits: t.bits, RowLen: t.rowLen,
		Q8: t.q8, Q16: t.q16, Scale: t.scale, Zero: t.zero,
	}
}

// unmarshalTable rebuilds a row table from its two serialized forms. Exactly
// one must be present, at the kernel's own geometry of rows x rowLen and at a
// defined width: a table that disagrees with its kernel would otherwise load
// clean and panic on the first query.
func unmarshalTable(what string, floats []float64, st *quantState, rows, rowLen int) (*rowTable, error) {
	if (floats == nil) == (st == nil) {
		return nil, fmt.Errorf("tabular: %s state needs exactly one of float table (%d entries) and quantized table", what, len(floats))
	}
	if rows <= 0 || rowLen <= 0 {
		return nil, fmt.Errorf("tabular: %s table geometry %d rows x %d invalid", what, rows, rowLen)
	}
	want := rows * rowLen
	if st == nil {
		if len(floats) != want {
			return nil, fmt.Errorf("tabular: %s float table %d entries, want %d rows x %d", what, len(floats), rows, rowLen)
		}
		return &rowTable{bits: 64, rowLen: rowLen, f64: floats}, nil
	}
	if st.RowLen != rowLen || len(st.Scale) != rows || len(st.Zero) != rows {
		return nil, fmt.Errorf("tabular: %s quantized table rows=%d rowLen=%d zeros=%d invalid, want %d rows x %d",
			what, len(st.Scale), st.RowLen, len(st.Zero), rows, rowLen)
	}
	if st.Bits != 8 && st.Bits != 16 {
		return nil, fmt.Errorf("tabular: %s quantized table width %d bits unsupported", what, st.Bits)
	}
	payload, stray := len(st.Q8), len(st.Q16)
	if st.Bits == 16 {
		payload, stray = stray, payload
	}
	if payload != want || stray != 0 {
		return nil, fmt.Errorf("tabular: %s int%d quantized payload %d entries (+%d at the other width), want %d",
			what, st.Bits, payload, stray, want)
	}
	return &rowTable{
		bits: st.Bits, rowLen: rowLen,
		q8: st.Q8, q16: st.Q16, scale: st.Scale, zero: st.Zero,
	}, nil
}

func init() {
	gob.Register(hierarchyState{})
}

// Save writes the hierarchy with encoding/gob so a trained DART predictor
// can be deployed without retraining.
func (h *Hierarchy) Save(w io.Writer) error {
	st, err := marshalLayers(h.Layers)
	if err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(hierarchyState{Layers: st})
}

// LoadHierarchy reads a hierarchy written by Save.
func LoadHierarchy(r io.Reader) (*Hierarchy, error) {
	var st hierarchyState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("tabular: decode hierarchy: %w", err)
	}
	layers, err := unmarshalLayers(st.Layers)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{Layers: layers}, nil
}

func marshalLayers(layers []Layer) ([]layerState, error) {
	out := make([]layerState, 0, len(layers))
	for _, l := range layers {
		st, err := marshalLayer(l)
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

// marshalEncoders marshals each encoder in order.
func marshalEncoders(encs ...pq.Encoder) ([]any, error) {
	out := make([]any, len(encs))
	for i, e := range encs {
		st, err := pq.MarshalEncoder(e)
		if err != nil {
			return nil, err
		}
		out[i] = st
	}
	return out, nil
}

func marshalLayer(l Layer) (layerState, error) {
	switch v := l.(type) {
	case *LinearKernel:
		enc, err := pq.MarshalEncoder(v.enc)
		if err != nil {
			return layerState{}, err
		}
		st := layerState{Kind: "linear", In: v.In, Out: v.Out, SeqT: v.seqT, Cfg: v.cfg, Enc: enc}
		st.Table, st.Quant = marshalTable(v.tab)
		return st, nil
	case *MSAKernel:
		st := layerState{Kind: "msa", D: v.D, H: v.H, Dh: v.Dh}
		for _, p := range []struct {
			dst **layerState
			k   *LinearKernel
		}{{&st.WQ, v.WQ}, {&st.WK, v.WK}, {&st.WV, v.WV}, {&st.WO, v.WO}} {
			ps, err := marshalLayer(p.k)
			if err != nil {
				return layerState{}, err
			}
			*p.dst = &ps
		}
		for _, h := range v.Heads {
			encs, err := marshalEncoders(h.encQ, h.encK, h.encS, h.encV)
			if err != nil {
				return layerState{}, err
			}
			hs := attnState{
				T: h.T, Dk: h.Dk, Mode: h.mode, Cfg: h.cfg,
				EncQ: encs[0], EncK: encs[1], EncS: encs[2], EncV: encs[3],
				DenTable: h.denTable, ExpShift: h.expShift,
			}
			hs.QKTable, hs.QKQuant = marshalTable(h.qk)
			hs.QKVTable, hs.QKVQuant = marshalTable(h.qkv)
			st.Heads = append(st.Heads, hs)
		}
		return st, nil
	case *LayerNormTab:
		return layerState{Kind: "layernorm", Dim: v.D, Gamma: v.Gamma, Beta: v.Beta, Eps: v.Eps}, nil
	case *SigmoidLUT:
		return layerState{Kind: "sigmoid"}, nil
	case ReLUTab:
		return layerState{Kind: "relu"}, nil
	case MeanPoolTab:
		return layerState{Kind: "meanpool"}, nil
	case *PosEmbedTab:
		st := layerState{Kind: "posembed", T: v.T, Dim: v.D}
		st.Emb, st.Quant = marshalTable(v.Emb)
		return st, nil
	case *ResidualTab:
		inner, err := marshalLayers(v.Inner)
		if err != nil {
			return layerState{}, err
		}
		return layerState{Kind: "residual", Inner: inner}, nil
	default:
		return layerState{}, fmt.Errorf("tabular: cannot serialize layer %T", l)
	}
}

func unmarshalLayers(states []layerState) ([]Layer, error) {
	out := make([]Layer, 0, len(states))
	for _, st := range states {
		l, err := unmarshalLayer(st)
		if err != nil {
			return nil, err
		}
		out = append(out, l)
	}
	return out, nil
}

// unmarshalEncoders decodes each encoder state in order.
func unmarshalEncoders(states ...any) ([]pq.Encoder, error) {
	out := make([]pq.Encoder, len(states))
	for i, st := range states {
		e, err := pq.UnmarshalEncoder(st)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

// encDim is the row width an encoder encodes.
func encDim(e pq.Encoder) int { return e.C() * e.SubDim() }

// unmarshalProjection decodes one of an msa block's linear projections.
func unmarshalProjection(name string, st *layerState) (*LinearKernel, error) {
	if st == nil {
		return nil, fmt.Errorf("tabular: msa state has no %s projection", name)
	}
	l, err := unmarshalLayer(*st)
	if err != nil {
		return nil, err
	}
	k, ok := l.(*LinearKernel)
	if !ok {
		return nil, fmt.Errorf("tabular: msa %s projection is a %q layer, want linear", name, st.Kind)
	}
	return k, nil
}

// unmarshalHead decodes one attention head, checking that its four encoders
// and its denominator table agree with the QK and QKV tables they index.
func unmarshalHead(hs attnState) (*AttentionKernel, error) {
	encs, err := unmarshalEncoders(hs.EncQ, hs.EncK, hs.EncS, hs.EncV)
	if err != nil {
		return nil, err
	}
	encQ, encK, encS, encV := encs[0], encs[1], encs[2], encs[3]
	ck, kk, ct, ks := encQ.C(), encQ.K(), encS.C(), encS.K()
	if encK.C() != ck || encK.K() != kk || encV.C() != ct || encV.K() != ks ||
		encDim(encQ) != hs.Dk || encDim(encK) != hs.Dk || encDim(encS) != hs.T || encDim(encV) != hs.T ||
		len(hs.DenTable) != ct*ks {
		return nil, fmt.Errorf("tabular: attention head T=%d Dk=%d disagrees with its encoders or its %d-entry denominator table",
			hs.T, hs.Dk, len(hs.DenTable))
	}
	qk, err := unmarshalTable("attention QK", hs.QKTable, hs.QKQuant, ck*kk, kk)
	if err != nil {
		return nil, err
	}
	qkv, err := unmarshalTable("attention QKV", hs.QKVTable, hs.QKVQuant, ct*ks, ks)
	if err != nil {
		return nil, err
	}
	if qk.bits != qkv.bits {
		return nil, fmt.Errorf("tabular: attention head stores its QK table at %d bits and its QKV table at %d", qk.bits, qkv.bits)
	}
	return &AttentionKernel{
		T: hs.T, Dk: hs.Dk, mode: hs.Mode, cfg: hs.Cfg,
		encQ: encQ, encK: encK, encS: encS, encV: encV,
		qk: qk, qkv: qkv, denTable: hs.DenTable, expShift: hs.ExpShift,
	}, nil
}

func unmarshalLayer(st layerState) (Layer, error) {
	switch st.Kind {
	case "linear":
		enc, err := pq.UnmarshalEncoder(st.Enc)
		if err != nil {
			return nil, err
		}
		if encDim(enc) != st.In {
			return nil, fmt.Errorf("tabular: linear kernel In=%d disagrees with its %d-dim encoder", st.In, encDim(enc))
		}
		tab, err := unmarshalTable("linear kernel", st.Table, st.Quant, enc.C()*enc.K(), st.Out)
		if err != nil {
			return nil, err
		}
		return &LinearKernel{In: st.In, Out: st.Out, seqT: st.SeqT, cfg: st.Cfg, enc: enc, tab: tab}, nil
	case "msa":
		m := &MSAKernel{D: st.D, H: st.H, Dh: st.Dh}
		var err error
		for _, p := range []struct {
			name string
			src  *layerState
			dst  **LinearKernel
		}{{"WQ", st.WQ, &m.WQ}, {"WK", st.WK, &m.WK}, {"WV", st.WV, &m.WV}, {"WO", st.WO, &m.WO}} {
			if *p.dst, err = unmarshalProjection(p.name, p.src); err != nil {
				return nil, err
			}
		}
		if len(st.Heads) != st.H {
			return nil, fmt.Errorf("tabular: msa state has %d heads, want H=%d", len(st.Heads), st.H)
		}
		for _, hs := range st.Heads {
			h, err := unmarshalHead(hs)
			if err != nil {
				return nil, err
			}
			m.Heads = append(m.Heads, h)
		}
		return m, nil
	case "layernorm":
		return &LayerNormTab{D: st.Dim, Gamma: st.Gamma, Beta: st.Beta, Eps: st.Eps}, nil
	case "sigmoid":
		return NewSigmoidLUT(), nil
	case "relu":
		return ReLUTab{}, nil
	case "meanpool":
		return MeanPoolTab{}, nil
	case "posembed":
		emb, err := unmarshalTable("posembed", st.Emb, st.Quant, st.T, st.Dim)
		if err != nil {
			return nil, err
		}
		return &PosEmbedTab{T: st.T, D: st.Dim, Emb: emb}, nil
	case "residual":
		inner, err := unmarshalLayers(st.Inner)
		if err != nil {
			return nil, err
		}
		return &ResidualTab{Inner: inner}, nil
	default:
		return nil, fmt.Errorf("tabular: unknown layer kind %q", st.Kind)
	}
}
