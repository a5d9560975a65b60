// Package config implements the paper's table configurator (Sec. VI-C): it
// prices each candidate predictor structure at the latency, storage and
// operation count of the table hierarchy tabular.Tabularize would build for
// it (tabular.ModelCost, Eqs. 16-23 composed over the student's layer list),
// models the complexity of the source neural network under a systolic-array
// implementation (Table V), and runs the latency-major greedy search that
// picks a structure satisfying the prefetcher design constraints (τ, s).
package config

import (
	"fmt"
	"sort"

	"dart/internal/nn"
	"dart/internal/tabular"
)

// ModelConfig is the network structure in the notation of Table I.
type ModelConfig struct {
	T  int // input patches T_T (= history length T_I here)
	DI int // input address dimension D_I
	DA int // attention dimension D_A
	DF int // feed-forward dimension D_F
	DO int // output delta-bitmap size D_O
	H  int // heads
	L  int // transformer layers
}

// ModelOf is the ModelConfig of a transformer's architecture.
func ModelOf(c nn.TransformerConfig) ModelConfig {
	return ModelConfig{T: c.T, DI: c.DIn, DA: c.DModel, DF: c.DFF, DO: c.DOut, H: c.Heads, L: c.Layers}
}

// Transformer is the transformer architecture the model structure describes;
// it inverts ModelOf.
func (m ModelConfig) Transformer() nn.TransformerConfig {
	return nn.TransformerConfig{T: m.T, DIn: m.DI, DModel: m.DA, DFF: m.DF, DOut: m.DO, Heads: m.H, Layers: m.L}
}

// TableConfig is the table structure in the notation of Table II, with a
// uniform ⟨K, C⟩ across operations as in the paper's DART rows.
type TableConfig struct {
	K        int
	C        int
	DataBits int // entry width d
}

// layerNormLatency models L_ln as a parallel reduction over D.
func layerNormLatency(d int) int { return 2 + tabular.CeilLog2(d) }

// systolic returns the latency of an (a x b)·(b x c) matrix product on a
// systolic array: a + b + c - 2 pipeline fill plus drain.
func systolic(a, b, c int) int { return a + b + c - 2 }

// NNLatency estimates the inference critical path of the neural model under
// a fully pipelined systolic-array implementation (Table V methodology).
func NNLatency(m ModelConfig) int {
	lat := systolic(m.T, m.DI, m.DA) // input projection
	lln := layerNormLatency(m.DA)
	for l := 0; l < m.L; l++ {
		lat += lln
		lat += systolic(m.T, m.DA, 3*m.DA)  // QKV projection
		lat += systolic(m.T, m.DA/m.H, m.T) // QKᵀ per head (parallel across heads)
		lat += tabular.CeilLog2(m.T) + 2    // softmax reduction
		lat += systolic(m.T, m.T, m.DA/m.H) // attention × V
		lat += systolic(m.T, m.DA, m.DA)    // output projection
		lat += lln
		lat += systolic(m.T, m.DA, m.DF) // FFN hidden
		lat += systolic(m.T, m.DF, m.DA) // FFN output
	}
	lat += lln
	lat += systolic(1, m.DA, m.DO) // classification head (after pooling)
	lat += tabular.SigmoidLatency
	return lat
}

// NNParams counts scalar parameters of the model.
func NNParams(m ModelConfig) int {
	p := m.DI*m.DA + m.DA            // input projection
	p += m.T * m.DA                  // positional embedding
	perLayer := 4*(m.DA*m.DA+m.DA) + // QKV + output projections
		2*m.DA + // LN1
		m.DA*m.DF + m.DF + m.DF*m.DA + m.DA + // FFN
		2*m.DA // LN2
	p += m.L * perLayer
	p += m.DA*m.DO + m.DO // head
	return p
}

// NNStorageBits is parameter storage at the given precision.
func NNStorageBits(m ModelConfig, bits int) int {
	if bits == 0 {
		bits = 32
	}
	return NNParams(m) * bits
}

// NNOps counts multiply-accumulate operations per inference.
func NNOps(m ModelConfig) int {
	ops := 2 * m.T * m.DI * m.DA
	perLayer := 2*m.T*m.DA*3*m.DA + // QKV
		2*m.T*m.T*m.DA + // QKᵀ (all heads combined)
		2*m.T*m.T*m.DA + // attention × V
		2*m.T*m.DA*m.DA + // output projection
		2*m.T*m.DA*m.DF*2 // FFN both linears
	ops += m.L * perLayer
	ops += 2 * m.DA * m.DO
	return ops
}

// LSTMLatency estimates the inference latency of a Voyager-class LSTM
// predictor: the recurrence is serial over the T steps (the paper's central
// criticism of LSTM prefetchers), each step a gate matmul on the systolic
// array, followed by the classification head.
func LSTMLatency(din, hidden, t, dout int) int {
	perStep := systolic(1, din+hidden, 4*hidden) + 4 // gates + elementwise update
	return t*perStep + systolic(1, hidden, dout) + tabular.SigmoidLatency
}

// LSTMParams counts LSTM predictor parameters.
func LSTMParams(din, hidden, dout int) int {
	return 4*hidden*(din+hidden) + 4*hidden + hidden*dout + dout
}

// LSTMOps counts multiply-accumulates per LSTM inference.
func LSTMOps(din, hidden, t, dout int) int {
	return t*2*4*hidden*(din+hidden) + 2*hidden*dout
}

// Constraints are the prefetcher design constraints (τ, s) of Eq. 9.
type Constraints struct {
	LatencyCycles int // τ
	StorageBytes  int // s
}

// Candidate is one point of the design space with its evaluated cost.
type Candidate struct {
	Model        ModelConfig
	Table        TableConfig
	Latency      int
	StorageBytes int
	Ops          int
}

// DefaultConstraints is the budget the pipeline and the CLIs configure under
// when none is given. It selects L=1, D_A=16, H=2, K=128, C=2 from
// DefaultSpace at the default data shape, the benchmark's frozen model: 82
// cycles and about 1.44 MiB of float64 tables.
var DefaultConstraints = Constraints{LatencyCycles: 82, StorageBytes: 3 << 19}

// Evaluate fills in the cost fields of a candidate: the cost of the table
// hierarchy tabular.Tabularize builds for that student and table shape.
func Evaluate(m ModelConfig, t TableConfig) Candidate {
	c := tabular.ModelCost(m.Transformer(), tabular.KernelConfig{K: t.K, C: t.C, DataBits: t.DataBits})
	return Candidate{Model: m, Table: t, Latency: c.LatencyCycles, StorageBytes: c.StorageBytes(), Ops: c.Ops}
}

// DefaultSpace enumerates the predefined design list of Sec. VI-C2 for the
// given input/output dimensions: L ∈ {1, 2}, D_A ∈ {16, 32, 64} (D_F = 4D_A),
// H ∈ {2, 4}, K ∈ {16 … 1024}, C ∈ {1, 2, 4}, at the stored entry width
// bits: 8 or 16 price quantized tables (including their per-row affine
// metadata), any other value prices float64 tables.
func DefaultSpace(t, di, do, bits int) []Candidate {
	var out []Candidate
	for _, l := range []int{1, 2} {
		for _, da := range []int{16, 32, 64} {
			for _, h := range []int{2, 4} {
				if da%h != 0 {
					continue
				}
				m := ModelConfig{T: t, DI: di, DA: da, DF: 4 * da, DO: do, H: h, L: l}
				for _, k := range []int{16, 32, 64, 128, 256, 512, 1024} {
					for _, c := range []int{1, 2, 4} {
						out = append(out, Evaluate(m, TableConfig{K: k, C: c, DataBits: bits}))
					}
				}
			}
		}
	}
	return out
}

// Configure runs the latency-major greedy search of Sec. VI-C2: it considers
// latencies below τ from the largest down, and at each latency level picks
// the candidate of maximum storage not exceeding s; the first level with a
// feasible candidate wins.
func Configure(cons Constraints, space []Candidate) (Candidate, error) {
	byLatency := map[int][]Candidate{}
	var latencies []int
	for _, c := range space {
		if c.Latency > cons.LatencyCycles {
			continue
		}
		if _, seen := byLatency[c.Latency]; !seen {
			latencies = append(latencies, c.Latency)
		}
		byLatency[c.Latency] = append(byLatency[c.Latency], c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(latencies)))
	for _, lat := range latencies {
		best := Candidate{StorageBytes: -1}
		for _, c := range byLatency[lat] {
			if c.StorageBytes <= cons.StorageBytes && c.StorageBytes > best.StorageBytes {
				best = c
			}
		}
		if best.StorageBytes >= 0 {
			return best, nil
		}
	}
	return Candidate{}, fmt.Errorf("config: no candidate satisfies τ=%d cycles, s=%d bytes",
		cons.LatencyCycles, cons.StorageBytes)
}
