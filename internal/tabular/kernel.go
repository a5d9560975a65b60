// Package tabular implements the paper's core contribution: tabularization
// kernels (Sec. V) that convert the operations of an attention-based neural
// network into table lookups, the layer-wise tabularization algorithm with
// fine-tuning (Algorithm 1), and the analytic latency/storage/operation-count
// model of Sec. V-C (Eqs. 16-23).
package tabular

import (
	"fmt"
	"math/rand"

	"dart/internal/mat"
	"dart/internal/par"
	"dart/internal/pq"
)

// Layer is one stage of the table-based predictor. Query maps a single
// sample's T x D activation matrix to the next activation; layers are either
// table lookups (linear/attention kernels, sigmoid LUT) or the cheap
// arithmetic passthroughs the paper keeps in native form (layer norm,
// residual add, pooling, ReLU).
type Layer interface {
	Query(x *mat.Matrix) *mat.Matrix
	Cost() Cost
	Name() string
}

// EncoderKind selects how kernels encode query vectors to prototype indices.
type EncoderKind int

const (
	// EncoderKMeans uses exact nearest-prototype search (Eq. 7).
	EncoderKMeans EncoderKind = iota
	// EncoderLSH uses sign-bit locality-sensitive hashing, the O(log K)
	// encoder assumed by the paper's latency model.
	EncoderLSH
)

// String names the encoder kind for configs, stats, and logs. It
// round-trips exactly with ParseEncoderKind for every defined kind; values
// outside the enum get a distinct label instead of masquerading as "linear"
// (a corrupted or future-versioned config should be visible in logs, not
// silently renamed to a kind it is not).
func (k EncoderKind) String() string {
	switch k {
	case EncoderKMeans:
		return "linear"
	case EncoderLSH:
		return "lsh"
	}
	return fmt.Sprintf("encoderkind(%d)", int(k))
}

// ParseEncoderKind maps operator-facing kernel names onto encoder kinds:
// "lsh" is the hashing encoder, "linear" (alias "kmeans") the exact
// nearest-prototype search. It makes the serving kernel selection
// config-driven — callers feed it straight into KernelConfig.Kind.
func ParseEncoderKind(s string) (EncoderKind, error) {
	switch s {
	case "lsh":
		return EncoderLSH, nil
	case "linear", "kmeans":
		return EncoderKMeans, nil
	}
	return EncoderKMeans, fmt.Errorf("tabular: unknown encoder kind %q (want lsh or linear)", s)
}

// KernelConfig carries the per-layer table configuration ⟨K, C⟩ of Table II
// plus the encoder choice and fitting parameters.
type KernelConfig struct {
	K    int         // prototypes per subspace
	C    int         // subspaces
	Kind EncoderKind // encoder implementation
	// DataBits is the stored entry width d in bits: 8 or 16 build quantized
	// tables with per-row affine (scale, zero) metadata, and 64 (the default)
	// keeps float64 tables. Any other width panics where it is decided.
	DataBits int
}

// withDefaults normalises zero fields.
func (c KernelConfig) withDefaults() KernelConfig {
	if c.DataBits == 0 {
		c.DataBits = 64
	}
	if c.K == 0 {
		c.K = 16
	}
	if c.C == 0 {
		c.C = 1
	}
	return c
}

// newEncoder constructs the configured encoder for dimension d, over
// subspaces(cfg.C, d) subspaces.
func newEncoder(cfg KernelConfig, d int, rng *rand.Rand) pq.Encoder {
	c := subspaces(cfg.C, d)
	switch cfg.Kind {
	case EncoderLSH:
		return pq.NewLSHEncoder(d, c, cfg.K, rng)
	default:
		return pq.NewKMeansEncoder(d, c, cfg.K, rng)
	}
}

// subspaces is the subspace count an encoder of dimension d uses under a
// requested C: when d is not divisible by C, the largest divisor of d that is
// <= C, so kernels remain usable for any layer width.
func subspaces(c, d int) int {
	for c > 1 && d%c != 0 {
		c--
	}
	return c
}

// Hierarchy is the full table-based predictor: an ordered list of tabular
// layers mirroring the source network.
type Hierarchy struct {
	Layers []Layer
}

// Query runs a single sample (T x D matrix) through every layer.
func (h *Hierarchy) Query(x *mat.Matrix) *mat.Matrix {
	for _, l := range h.Layers {
		x = l.Query(x)
	}
	return x
}

// queryBatch fans an independent per-sample query out through par.For:
// sample 0 sizes the output tensor, the remaining samples run in parallel.
// Each sample's output is exactly what q produces, for any worker count.
func queryBatch(x *mat.Tensor, grain int, q func(*mat.Matrix) *mat.Matrix) *mat.Tensor {
	if x.N == 0 {
		return mat.NewTensor(0, 0, 0)
	}
	first := q(x.Sample(0))
	out := mat.NewTensor(x.N, first.Rows, first.Cols)
	copy(out.Sample(0).Data, first.Data)
	par.For(x.N-1, grain, func(lo, hi int) {
		for n := lo + 1; n < hi+1; n++ {
			copy(out.Sample(n).Data, q(x.Sample(n)).Data)
		}
	})
	return out
}

// QueryBatch evaluates a batch tensor sample-by-sample and returns the
// stacked outputs. The per-sample queries are independent table lookups —
// the embarrassingly parallel structure the paper exploits — so the batch
// fans out through par.For.
func (h *Hierarchy) QueryBatch(x *mat.Tensor) *mat.Tensor {
	return queryBatch(x, 1, h.Query)
}

// Cost sums the analytic complexity of every layer. Latency is the critical
// path under the paper's fully-parallel assumption, so lookups within a layer
// count once while layers accumulate.
func (h *Hierarchy) Cost() Cost {
	var total Cost
	for _, l := range h.Layers {
		total = total.Add(l.Cost())
	}
	return total
}
