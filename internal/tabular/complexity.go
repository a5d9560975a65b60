package tabular

import "dart/internal/nn"

// Cost models a kernel's inference complexity with the three quantities the
// paper tracks (Sec. V-C): critical-path latency in cycles under full
// parallelism, storage in bits, and residual arithmetic operations.
type Cost struct {
	LatencyCycles int
	StorageBits   int
	Ops           int
}

// Add accumulates costs across layers (latencies are sequential).
func (c Cost) Add(o Cost) Cost {
	return Cost{
		LatencyCycles: c.LatencyCycles + o.LatencyCycles,
		StorageBits:   c.StorageBits + o.StorageBits,
		Ops:           c.Ops + o.Ops,
	}
}

// StorageBytes reports storage in bytes, rounding up.
func (c Cost) StorageBytes() int { return (c.StorageBits + 7) / 8 }

// CeilLog2 returns ⌈log2(x)⌉ with CeilLog2(1) = 0.
func CeilLog2(x int) int {
	if x <= 1 {
		return 0
	}
	n := 0
	v := 1
	for v < x {
		v <<= 1
		n++
	}
	return n
}

// LinearLatency is Eq. 16: L_l(K, C) = log(K) + log(C) + 1.
func LinearLatency(k, c int) int { return CeilLog2(k) + CeilLog2(c) + 1 }

// AttentionLatency is Eq. 17 with C_k = C_t = C:
// L_a(K, C) = 2(log(K) + log(C) + 1).
func AttentionLatency(k, c int) int { return 2 * (CeilLog2(k) + CeilLog2(c) + 1) }

// LinearStorageBits is Eq. 18: S_l = T·C·log(K) + D_O·K·C·d bits.
func LinearStorageBits(t, do, k, c, d int) int {
	return t*c*CeilLog2(k) + do*k*c*d
}

// AttentionStorageBits is Eq. 19 with C_k = C_t = C:
// S_a = (3T + D_k)·C·log(K) + 2K²·C·d bits.
func AttentionStorageBits(t, dk, k, c, d int) int {
	return (3*t+dk)*c*CeilLog2(k) + 2*k*k*c*d
}

// LinearOps is Eq. 20: A_l = T·C·log(K) + T·D_O·log(C).
func LinearOps(t, do, k, c int) int {
	return t*c*CeilLog2(k) + t*do*CeilLog2(c)
}

// AttentionOps is Eq. 21 with C_k = C_t = C:
// A_a = (3T + D_k)·C·log(K) + (T² + D_k²)·log(C).
func AttentionOps(t, dk, k, c int) int {
	return (3*t+dk)*c*CeilLog2(k) + (t*t+dk*dk)*CeilLog2(c)
}

// Constants for the non-tabular operations the paper keeps in native
// arithmetic form. Layer norm is a two-pass reduction over D (latency
// ~2·log D under a parallel reduction, but the paper treats it as a small
// constant); the sigmoid LUT is a single lookup.
const (
	// LayerNormLatency is L_ln in Eq. 22.
	LayerNormLatency = 2
	// SigmoidLatency is L_σ in Eq. 22.
	SigmoidLatency = 1
	// SigmoidLUTEntries is the fixed sigmoid lookup-table resolution.
	SigmoidLUTEntries = 1024
)

// LayerNormStorageBits is S_ln: γ and β at d bits each.
func LayerNormStorageBits(dim, d int) int { return 2 * dim * d }

// SigmoidStorageBits is S_σ: the fixed LUT.
func SigmoidStorageBits(d int) int { return SigmoidLUTEntries * d }

// widths is the entry width newRowTable stores a DataBits request at, and
// the affine metadata (float64 scale, int32 zero) each row of that table
// carries on top of the entries the paper's storage equations count: 8 and
// 16 stay quantized, anything else is float64 with no metadata.
func widths(bits int) (entry, rowMeta int) {
	if bits == 8 || bits == 16 {
		return bits, 64 + 32
	}
	return 64, 0
}

// linearCost is Eqs. 16, 18, 20 for a linear kernel producing out features
// over t rows from c subspaces of k prototypes, its table stored at bits.
func linearCost(t, out, k, c, bits int) Cost {
	d, meta := widths(bits)
	return Cost{
		LatencyCycles: LinearLatency(k, c),
		StorageBits:   LinearStorageBits(t, out, k, c, d) + c*k*meta,
		Ops:           LinearOps(t, out, k, c),
	}
}

// attentionCost is Eqs. 17, 19, 21 for one attention head over t rows of dk
// features, whose dk-wide Q/K encoders have ck subspaces and whose t-wide
// score-row encoder has ct. The float64 denominator table (ct·k entries),
// which Eq. 19's 2K²·C·d term does not cover, is added.
func attentionCost(t, dk, k, ck, ct, bits int) Cost {
	d, meta := widths(bits)
	return Cost{
		LatencyCycles: AttentionLatency(k, ck),
		StorageBits:   AttentionStorageBits(t, dk, k, ck, d) + ct*k*64 + (ck+ct)*k*meta,
		Ops:           AttentionOps(t, dk, k, ck),
	}
}

// posEmbedCost is one parallel add plus a t x d positional embedding stored
// at bits: one row per position, each with its affine metadata if quantized.
func posEmbedCost(t, d, bits int) Cost {
	entry, meta := widths(bits)
	return Cost{LatencyCycles: 1, StorageBits: t*d*entry + t*meta}
}

// msaCost composes a multi-head self-attention block from the cost of one
// of its four equal projections and one of its h heads: the Q/K/V
// projections run in parallel, then the heads, then the output projection.
func msaCost(proj, head Cost, h int) Cost {
	return Cost{
		LatencyCycles: 2*proj.LatencyCycles + head.LatencyCycles,
		StorageBits:   4*proj.StorageBits + h*head.StorageBits,
		Ops:           4*proj.Ops + h*head.Ops,
	}
}

// ModelCost is the Cost of the hierarchy Tabularize builds from a student of
// nn.NewTransformerPredictor's shape tc under kc, from shapes alone: no model
// is built and no table fitted. It walks that layer list — input linear,
// positional embedding, L × (residual(LN, MSA), residual(LN, FFN1, ReLU,
// FFN2)), mean pool, and an output linear over the one pooled row — through
// the per-kernel costs the built layers report.
func ModelCost(tc nn.TransformerConfig, kc KernelConfig) Cost {
	kc = kc.withDefaults()
	t, d, k := tc.T, tc.DModel, kc.K
	linear := func(rows, in, out int) Cost { return linearCost(rows, out, k, subspaces(kc.C, in), kc.DataBits) }
	dk := d / tc.Heads
	head := attentionCost(t, dk, k, subspaces(kc.C, dk), subspaces(kc.C, t), kc.DataBits)
	ln, res := (&LayerNormTab{D: d}).Cost(), (&ResidualTab{}).Cost()
	attn := res.Add(ln).Add(msaCost(linear(t, d, d), head, tc.Heads))
	ffn := res.Add(ln).Add(linear(t, d, tc.DFF)).Add(ReLUTab{}.Cost()).Add(linear(t, tc.DFF, d))
	c := linear(t, tc.DIn, d).Add(posEmbedCost(t, d, kc.DataBits))
	for l := 0; l < tc.Layers; l++ {
		c = c.Add(attn).Add(ffn)
	}
	return c.Add(MeanPoolTab{}.Cost()).Add(linear(1, d, tc.DOut))
}
