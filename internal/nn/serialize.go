package nn

import (
	"encoding/gob"
	"fmt"
	"io"
)

// modelState is the on-wire form of a model's parameters.
type modelState struct {
	Names  []string
	Shapes [][2]int
	Data   [][]float64
}

// stateOf snapshots a model's parameters.
func stateOf(m Layer) modelState {
	params := m.Params()
	st := modelState{
		Names:  make([]string, len(params)),
		Shapes: make([][2]int, len(params)),
		Data:   make([][]float64, len(params)),
	}
	for i, p := range params {
		st.Names[i] = p.Name
		st.Shapes[i] = [2]int{p.W.Rows, p.W.Cols}
		st.Data[i] = append([]float64(nil), p.W.Data...)
	}
	return st
}

// restoreState copies a parameter snapshot into a model of the same
// architecture. Every name, shape and value count is verified before the
// first value is copied, so a rejected snapshot leaves the model untouched.
func restoreState(m Layer, st modelState) error {
	params := m.Params()
	if len(params) != len(st.Names) || len(params) != len(st.Shapes) || len(params) != len(st.Data) {
		return fmt.Errorf("nn: model has %d params, snapshot has %d names, %d shapes, %d values",
			len(params), len(st.Names), len(st.Shapes), len(st.Data))
	}
	for i, p := range params {
		if p.Name != st.Names[i] {
			return fmt.Errorf("nn: param %d name %q != snapshot %q", i, p.Name, st.Names[i])
		}
		if p.W.Rows != st.Shapes[i][0] || p.W.Cols != st.Shapes[i][1] {
			return fmt.Errorf("nn: param %q shape %dx%d != snapshot %dx%d",
				p.Name, p.W.Rows, p.W.Cols, st.Shapes[i][0], st.Shapes[i][1])
		}
		if len(st.Data[i]) != len(p.W.Data) {
			return fmt.Errorf("nn: param %q has %d values, snapshot has %d", p.Name, len(p.W.Data), len(st.Data[i]))
		}
	}
	for i, p := range params {
		copy(p.W.Data, st.Data[i])
	}
	return nil
}

// SaveParams writes a model's parameters with encoding/gob. Only parameter
// values are stored; the caller is responsible for reconstructing a model of
// the same architecture before loading. For durable on-disk snapshots prefer
// SaveCheckpoint, which adds a metadata header and CRC validation.
func SaveParams(w io.Writer, m Layer) error {
	return gob.NewEncoder(w).Encode(stateOf(m))
}

// LoadParams restores parameters saved by SaveParams into a model of the
// same architecture. It verifies names and shapes.
func LoadParams(r io.Reader, m Layer) error {
	var st modelState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return fmt.Errorf("nn: decode params: %w", err)
	}
	return restoreState(m, st)
}

// CopyParams copies the parameter values of src into dst. Both models must
// share the same architecture (same parameter names and shapes, as produced
// by the same constructor); gradients and any optimizer state are untouched.
// The online-learning model store uses this to clone a training shadow into
// an immutable published snapshot.
func CopyParams(dst, src Layer) error {
	dp, sp := dst.Params(), src.Params()
	if len(dp) != len(sp) {
		return fmt.Errorf("nn: model has %d params, source has %d", len(dp), len(sp))
	}
	for i, d := range dp {
		s := sp[i]
		if d.Name != s.Name {
			return fmt.Errorf("nn: param %d name %q != source %q", i, d.Name, s.Name)
		}
		if d.W.Rows != s.W.Rows || d.W.Cols != s.W.Cols {
			return fmt.Errorf("nn: param %q shape %dx%d != source %dx%d",
				d.Name, d.W.Rows, d.W.Cols, s.W.Rows, s.W.Cols)
		}
		copy(d.W.Data, s.W.Data)
	}
	return nil
}
