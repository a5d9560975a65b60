package tabular

import (
	"math/rand"
	"testing"

	"dart/internal/mat"
	"dart/internal/nn"
)

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 16: 4, 128: 7, 1024: 10}
	for in, want := range cases {
		if got := CeilLog2(in); got != want {
			t.Errorf("CeilLog2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestLinearLatencyEq16(t *testing.T) {
	// L_l(K, C) = log K + log C + 1.
	if got := LinearLatency(128, 2); got != 7+1+1 {
		t.Fatalf("LinearLatency(128,2) = %d", got)
	}
	if got := LinearLatency(16, 1); got != 4+0+1 {
		t.Fatalf("LinearLatency(16,1) = %d", got)
	}
}

func TestAttentionLatencyEq17(t *testing.T) {
	// L_a(K, C) = 2(log K + log C + 1).
	if got := AttentionLatency(128, 2); got != 2*(7+1+1) {
		t.Fatalf("AttentionLatency(128,2) = %d", got)
	}
}

func TestLinearStorageEq18(t *testing.T) {
	// S_l = T·C·log K + D_O·K·C·d.
	want := 8*2*7 + 32*128*2*32
	if got := LinearStorageBits(8, 32, 128, 2, 32); got != want {
		t.Fatalf("LinearStorageBits = %d, want %d", got, want)
	}
}

func TestAttentionStorageEq19(t *testing.T) {
	// S_a = (3T + Dk)·C·log K + 2K²·C·d.
	want := (3*8+16)*2*7 + 2*128*128*2*32
	if got := AttentionStorageBits(8, 16, 128, 2, 32); got != want {
		t.Fatalf("AttentionStorageBits = %d, want %d", got, want)
	}
}

func TestLinearOpsEq20(t *testing.T) {
	// A_l = T·C·log K + T·D_O·log C.
	want := 8*2*7 + 8*32*1
	if got := LinearOps(8, 32, 128, 2); got != want {
		t.Fatalf("LinearOps = %d, want %d", got, want)
	}
}

func TestAttentionOpsEq21(t *testing.T) {
	// A_a = (3T + Dk)·C·log K + (T² + Dk²)·log C.
	want := (3*8+16)*2*7 + (64+256)*1
	if got := AttentionOps(8, 16, 128, 2); got != want {
		t.Fatalf("AttentionOps = %d, want %d", got, want)
	}
}

func TestCostAddAndBytes(t *testing.T) {
	a := Cost{LatencyCycles: 3, StorageBits: 9, Ops: 5}
	b := Cost{LatencyCycles: 2, StorageBits: 7, Ops: 1}
	s := a.Add(b)
	if s.LatencyCycles != 5 || s.StorageBits != 16 || s.Ops != 6 {
		t.Fatalf("Cost.Add = %+v", s)
	}
	if s.StorageBytes() != 2 {
		t.Fatalf("StorageBytes = %d", s.StorageBytes())
	}
	if (Cost{StorageBits: 9}).StorageBytes() != 2 {
		t.Fatal("StorageBytes rounding broken")
	}
}

func TestLatencyMonotoneInK(t *testing.T) {
	prev := 0
	for _, k := range []int{2, 4, 16, 64, 256, 1024} {
		l := LinearLatency(k, 2)
		if l < prev {
			t.Fatalf("latency not monotone at K=%d", k)
		}
		prev = l
	}
}

func TestStorageExponentialInK(t *testing.T) {
	// Paper Fig. 10: storage grows ~exponentially with log K steps, i.e.
	// doubling K roughly doubles the dominant linear-kernel table term.
	s1 := LinearStorageBits(8, 32, 128, 2, 32)
	s2 := LinearStorageBits(8, 32, 256, 2, 32)
	if s2 < s1*3/2 {
		t.Fatalf("doubling K: %d -> %d, expected near-doubling", s1, s2)
	}
}

// TestModelCostMatchesBuilt: the shape-only ModelCost the configurator
// prices candidates with equals the Cost() of the hierarchy Tabularize
// actually builds, exactly. Cost depends only on shapes, so random-weight
// students and a small random fit set suffice. C=4 at D_I=10 exercises the
// input linear's subspace reduction; bits 32 requests a width the tables
// store as float64.
func TestModelCostMatchesBuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fit := mat.NewTensor(6, 8, 10)
	for i := range fit.Data {
		fit.Data[i] = rng.NormFloat64()
	}
	layers, ds, ks, bitss := []int{1, 2}, []int{16, 32}, []int{16, 128}, []int{64, 32, 16, 8}
	if testing.Short() {
		layers, ds, ks, bitss = []int{1}, []int{16}, []int{16}, []int{64, 8}
	}
	for _, l := range layers {
		for _, d := range ds {
			for _, h := range []int{2, 4} {
				tc := nn.TransformerConfig{T: 8, DIn: 10, DModel: d, DFF: 4 * d, DOut: 16, Heads: h, Layers: l}
				student := nn.NewTransformerPredictor(tc, rng)
				for _, k := range ks {
					for _, c := range []int{1, 2, 4} {
						for _, bits := range bitss {
							kc := KernelConfig{K: k, C: c, Kind: EncoderLSH, DataBits: bits}
							built := Tabularize(student, fit, Config{Kernel: kc, Seed: 1}).Hierarchy.Cost()
							if got := ModelCost(tc, kc); got != built {
								t.Errorf("L=%d D=%d H=%d K=%d C=%d bits=%d: ModelCost %+v, built %+v",
									l, d, h, k, c, bits, got, built)
							}
						}
					}
				}
			}
		}
	}
}
