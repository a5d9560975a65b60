package kd

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"dart/internal/mat"
	"dart/internal/nn"
)

// trainDigest is the FNV-64a hash of every parameter's IEEE-754 bits followed
// by the bits of the logits m produces on x.
func trainDigest(m nn.Layer, x *mat.Tensor) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(vs []float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	for _, p := range m.Params() {
		put(p.W.Data)
	}
	put(m.Forward(x).Data)
	return h.Sum64()
}

// TestTrainDigest pins the exact bits training produces: two nn.Trainer
// epochs of a small transformer teacher, then one Distiller epoch into its
// student, all at fixed seeds. Any change to a layer's forward or backward
// arithmetic, its accumulation order, or the optimizer moves a digest. The
// FMA kernels may round differently off amd64, so other architectures skip.
func TestTrainDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests recorded on amd64, running on %s", runtime.GOARCH)
	}
	cfg := nn.TransformerConfig{T: 4, DIn: 6, DModel: 8, DFF: 16, DOut: 6, Heads: 2, Layers: 2}
	rng := rand.New(rand.NewSource(3))
	x := mat.NewTensor(40, cfg.T, cfg.DIn)
	y := mat.NewTensor(40, 1, cfg.DOut)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range y.Data {
		y.Data[i] = float64(rng.Intn(2))
	}
	teacher := nn.NewTransformerPredictor(cfg, rng)
	tr := nn.NewTrainer(teacher, nn.NewAdam(1e-2), 8, rng)
	for e := 0; e < 2; e++ {
		tr.TrainEpoch(x, y, nn.BCEWithLogits)
	}
	student := nn.NewTransformerPredictor(nn.StudentConfig(cfg), rng)
	kc := DefaultConfig()
	kc.LR, kc.Batch, kc.Epochs = 1e-2, 8, 1
	NewDistiller(teacher, student, kc, rng).Run(x, y)

	const wantTeacher, wantStudent = uint64(0x6c840e2bc0002bfc), uint64(0xb9a01333da47f8bc)
	if got := trainDigest(teacher, x); got != wantTeacher {
		t.Errorf("teacher digest %#x, want %#x", got, wantTeacher)
	}
	if got := trainDigest(student, x); got != wantStudent {
		t.Errorf("student digest %#x, want %#x", got, wantStudent)
	}
}
