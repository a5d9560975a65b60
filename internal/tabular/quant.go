package tabular

import (
	"fmt"

	"dart/internal/mat"
	"dart/internal/pq"
)

// rowTable is a prototype-major lookup table of rows x rowLen entries stored
// at one width. A "row" is the contiguous slice one encoded prototype index
// selects — Out entries for a linear kernel, K entries for the attention
// tables, D for a positional embedding — so every query reads whole rows or
// single cells through the same methods whatever the width. At 64 bits the
// entries are float64; at 8 or 16 bits they are integer codes with a per-row
// affine (scale, zero) pair, and row reconstruction goes through the mat
// quantized-row kernels, which are bit-identical between their scalar and
// vector forms and apply each row's scale exactly once.
type rowTable struct {
	bits   int // 64, 16 or 8
	rowLen int
	f64    []float64 // bits == 64
	q8     []int8    // bits == 8
	q16    []int16   // bits == 16
	scale  []float64 // per row; nil at 64 bits
	zero   []int32   // per row; nil at 64 bits
}

// newRowTable stores a float64 table of rows x rowLen entries at the width
// widths gives bits: 8 or 16 quantize with one affine pair fitted per row,
// and any other value (KernelConfig.DataBits' default 64) keeps src as float64.
func newRowTable(src []float64, rows, rowLen, bits int) *rowTable {
	if len(src) != rows*rowLen {
		panic(fmt.Sprintf("tabular: row table %d entries != %d rows x %d", len(src), rows, rowLen))
	}
	if entry, _ := widths(bits); entry == 64 {
		return &rowTable{bits: 64, rowLen: rowLen, f64: src}
	}
	t := &rowTable{
		bits:   bits,
		rowLen: rowLen,
		scale:  make([]float64, rows),
		zero:   make([]int32, rows),
	}
	if bits == 8 {
		t.q8 = make([]int8, len(src))
	} else {
		t.q16 = make([]int16, len(src))
	}
	for r := 0; r < rows; r++ {
		row := src[r*rowLen : (r+1)*rowLen]
		rq := pq.FitRowQuant(row, bits)
		t.scale[r], t.zero[r] = rq.Scale, rq.Zero
		for j, v := range row {
			code := rq.Quantize(v, bits)
			if bits == 8 {
				t.q8[r*rowLen+j] = int8(code)
			} else {
				t.q16[r*rowLen+j] = int16(code)
			}
		}
	}
	return t
}

// copyRow writes row r into dst (len(dst) == rowLen).
func (t *rowTable) copyRow(r int, dst []float64) {
	lo, hi := r*t.rowLen, (r+1)*t.rowLen
	switch t.bits {
	case 8:
		mat.DequantRowInt8(dst, t.q8[lo:hi], t.zero[r], t.scale[r])
	case 16:
		mat.DequantRowInt16(dst, t.q16[lo:hi], t.zero[r], t.scale[r])
	default:
		copy(dst, t.f64[lo:hi])
	}
}

// addRow adds row r into dst.
func (t *rowTable) addRow(r int, dst []float64) {
	lo, hi := r*t.rowLen, (r+1)*t.rowLen
	switch t.bits {
	case 8:
		mat.AccumRowInt8(dst, t.q8[lo:hi], t.zero[r], t.scale[r])
	case 16:
		mat.AccumRowInt16(dst, t.q16[lo:hi], t.zero[r], t.scale[r])
	default:
		for j, v := range t.f64[lo:hi] {
			dst[j] += v
		}
	}
}

// at reads the single entry (r, j) — the attention score path reads
// individual pairwise-product cells rather than whole rows.
func (t *rowTable) at(r, j int) float64 {
	i := r*t.rowLen + j
	switch t.bits {
	case 8:
		return float64(int32(t.q8[i])-t.zero[r]) * t.scale[r]
	case 16:
		return float64(int32(t.q16[i])-t.zero[r]) * t.scale[r]
	}
	return t.f64[i]
}

// storedBytes is the measured footprint: the entries at their stored width
// plus any affine metadata (float64 scale and int32 zero per row).
func (t *rowTable) storedBytes() int {
	return len(t.f64)*8 + len(t.q16)*2 + len(t.q8) + len(t.scale)*8 + len(t.zero)*4
}

// MeasuredStorageBytes reports the bytes a layer's stored tables and
// parameters actually occupy: lookup-table payloads, quantization metadata,
// and native-form parameter vectors. Encoder internals (hash planes,
// centroids) are excluded to match the scope of the Sec. V-C storage model,
// which prices stored table entries and encoded indices only. This is the
// ground truth the modelled Cost().StorageBits is regression-tested against.
func MeasuredStorageBytes(l Layer) int {
	switch v := l.(type) {
	case *LinearKernel:
		return v.TableBytes()
	case *MSAKernel:
		b := v.WQ.TableBytes() + v.WK.TableBytes() + v.WV.TableBytes() + v.WO.TableBytes()
		for _, h := range v.Heads {
			b += h.TableBytes()
		}
		return b
	case *LayerNormTab:
		return (len(v.Gamma) + len(v.Beta)) * 8
	case *SigmoidLUT:
		return len(v.Entries) * 8
	case *PosEmbedTab:
		return v.Emb.storedBytes()
	case *ResidualTab:
		var b int
		for _, inner := range v.Inner {
			b += MeasuredStorageBytes(inner)
		}
		return b
	default:
		return 0
	}
}

// MeasuredStorageBytes sums the measured footprint of every layer.
func (h *Hierarchy) MeasuredStorageBytes() int {
	var b int
	for _, l := range h.Layers {
		b += MeasuredStorageBytes(l)
	}
	return b
}

// DataBits reports the stored entry width of the hierarchy's lookup tables:
// 8 or 16 when the table kernels are quantized, 64 for float64 tables. It is
// stamped into checkpoint metadata so operators can read a table store's
// width without decoding its body.
func (h *Hierarchy) DataBits() int {
	for _, l := range h.Layers {
		if d := layerDataBits(l); d != 0 {
			return d
		}
	}
	return 64
}

func layerDataBits(l Layer) int {
	switch v := l.(type) {
	case *LinearKernel:
		return v.tab.bits
	case *MSAKernel:
		return layerDataBits(v.WQ)
	case *PosEmbedTab:
		return v.Emb.bits
	case *ResidualTab:
		for _, inner := range v.Inner {
			if d := layerDataBits(inner); d != 0 {
				return d
			}
		}
	}
	return 0
}
