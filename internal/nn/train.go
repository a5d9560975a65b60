package nn

import (
	"math/rand"

	"dart/internal/mat"
)

// Trainer drives minibatch training of a model against a LossFunc.
type Trainer struct {
	Model Layer
	Opt   Optimizer
	Batch int
	Rng   *rand.Rand
}

// NewTrainer builds a trainer with the given batch size.
func NewTrainer(model Layer, opt Optimizer, batch int, rng *rand.Rand) *Trainer {
	if batch <= 0 {
		batch = 32
	}
	return &Trainer{Model: model, Opt: opt, Batch: batch, Rng: rng}
}

// TrainEpoch shuffles the dataset, runs one epoch of minibatch updates, and
// returns the mean per-batch loss.
func (tr *Trainer) TrainEpoch(x, y *mat.Tensor, loss LossFunc) float64 {
	n := x.N
	idx := tr.Rng.Perm(n)
	var total float64
	var batches int
	for lo := 0; lo < n; lo += tr.Batch {
		hi := lo + tr.Batch
		if hi > n {
			hi = n
		}
		bi := idx[lo:hi]
		bx := x.Gather(bi)
		by := y.Gather(bi)
		logits, back := tr.Model.Train(bx)
		l, grad := loss(logits, by)
		back(grad)
		tr.Opt.Step(tr.Model.Params())
		total += l
		batches++
	}
	if batches == 0 {
		return 0
	}
	return total / float64(batches)
}
