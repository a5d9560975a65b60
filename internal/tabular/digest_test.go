package tabular

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"dart/internal/mat"
	"dart/internal/nn"
)

// digestCase pins one tabularization: the FNV-64 digest of its QueryBatch
// output bits, its modelled Cost and its measured storage.
type digestCase struct {
	bits    int
	kind    EncoderKind
	c       int
	digest  uint64
	cost    Cost
	storage int
}

// digestCases were recorded while each kernel still kept a separate float64
// and quantized table, so they pin that one row table per kernel answers
// bit-identically at every stored width. A change here changes the numbers
// the tables serve; it is not a refresh.
var digestCases = []digestCase{
	{0, EncoderLSH, 1, 0xdb75b9045869d9bd, Cost{34, 26746, 122}, 3328},
	{0, EncoderLSH, 2, 0x34e9f89f52ef0e70, Cost{42, 49396, 570}, 6144},
	{0, EncoderKMeans, 1, 0x5f22502f7595ef61, Cost{34, 26746, 122}, 3328},
	{0, EncoderKMeans, 2, 0xf0dfe015cb2d69f, Cost{42, 49396, 570}, 6144},
	{8, EncoderLSH, 1, 0x98ce5f9be4b1feea, Cost{34, 10682, 122}, 1320},
	{8, EncoderLSH, 2, 0x23f72c4f6f7014e1, Cost{42, 18676, 570}, 2304},
	{8, EncoderKMeans, 1, 0xbdeebedf50a52104, Cost{34, 10682, 122}, 1320},
	{8, EncoderKMeans, 2, 0x2f4c7ebead22d46f, Cost{42, 18676, 570}, 2304},
	{16, EncoderLSH, 1, 0x9d03fb5cce58ae66, Cost{34, 13690, 122}, 1696},
	{16, EncoderLSH, 2, 0xcdf9d8830c42df9, Cost{42, 24436, 570}, 3024},
	{16, EncoderKMeans, 1, 0x5a647d6575969ea1, Cost{34, 13690, 122}, 1696},
	{16, EncoderKMeans, 2, 0x905b1eff81ec49f4, Cost{42, 24436, 570}, 3024},
	{64, EncoderLSH, 1, 0xdb75b9045869d9bd, Cost{34, 26746, 122}, 3328},
	{64, EncoderLSH, 2, 0x34e9f89f52ef0e70, Cost{42, 49396, 570}, 6144},
	{64, EncoderKMeans, 1, 0x5f22502f7595ef61, Cost{34, 26746, 122}, 3328},
	{64, EncoderKMeans, 2, 0xf0dfe015cb2d69f, Cost{42, 49396, 570}, 6144},
}

// outputDigest is the FNV-64a hash of every output's IEEE-754 bits.
func outputDigest(x *mat.Tensor) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range x.Data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestTabularizeDigest pins the exact outputs, Cost and measured storage of
// a fine-tuned small transformer tabularized at every stored width, encoder
// and subspace count. Any change to a table's query arithmetic, its storage
// accounting or the tabularizer's RNG draw order moves a digest. The nn
// forward's FMA kernels may round differently off amd64, so other
// architectures skip.
func TestTabularizeDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests recorded on amd64, running on %s", runtime.GOARCH)
	}
	rng := rand.New(rand.NewSource(5))
	net := nn.NewTransformerPredictor(nn.TransformerConfig{
		T: 4, DIn: 6, DModel: 8, DFF: 16, DOut: 6, Heads: 2, Layers: 1,
	}, rng)
	fit := mat.NewTensor(24, 4, 6)
	for i := range fit.Data {
		fit.Data[i] = rng.NormFloat64()
	}
	probe := mat.NewTensor(7, 4, 6)
	for i := range probe.Data {
		probe.Data[i] = rng.NormFloat64()
	}
	for _, tc := range digestCases {
		t.Run(fmt.Sprintf("bits=%d/%v/C=%d", tc.bits, tc.kind, tc.c), func(t *testing.T) {
			h := Tabularize(net, fit, Config{
				Kernel:         KernelConfig{K: 4, C: tc.c, Kind: tc.kind, DataBits: tc.bits},
				FineTune:       true,
				FineTuneEpochs: 2,
				Seed:           11,
			}).Hierarchy
			got := digestCase{tc.bits, tc.kind, tc.c,
				outputDigest(h.QueryBatch(probe)), h.Cost(), h.MeasuredStorageBytes()}
			if got != tc {
				t.Errorf("got {%d, %#v, %d, %#x, Cost{%d, %d, %d}, %d}",
					got.bits, got.kind, got.c, got.digest,
					got.cost.LatencyCycles, got.cost.StorageBits, got.cost.Ops, got.storage)
			}
		})
	}
}
