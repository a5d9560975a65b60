// Package kd implements the paper's multi-label knowledge distillation
// (Sec. VI-D): a large teacher's soft predictions, softened by the T-Sigmoid
// function (Eq. 24), supervise a compact student through a Bernoulli
// Kullback-Leibler loss combined with the hard binary-cross-entropy loss
// (Eq. 25).
package kd

import (
	"fmt"
	"math"
	"math/rand"

	"dart/internal/mat"
	"dart/internal/nn"
)

// TSigmoid is the temperature-softened sigmoid of Eq. 24:
// z = σ(y/T) = 1 / (1 + e^(-y/T)). Higher temperatures flatten the
// distribution toward 0.5, exposing the teacher's dark knowledge.
func TSigmoid(y, temp float64) float64 {
	return 1 / (1 + math.Exp(-y/temp))
}

// BernoulliKL is KL((p,1-p) ‖ (q,1-q)), the per-label soft loss of Eq. 25.
func BernoulliKL(p, q float64) float64 {
	const eps = 1e-12
	p = clamp(p, eps, 1-eps)
	q = clamp(q, eps, 1-eps)
	return p*math.Log(p/q) + (1-p)*math.Log((1-p)/(1-q))
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Config holds the distillation hyperparameters. Lambda and Temperature are
// taken literally — λ = 0 requests pure hard-loss training and λ = 1 pure KD,
// both legitimate boundary settings of Eq. 25 — so callers wanting the
// experiment defaults start from DefaultConfig and override fields, or set a
// field to NaN to select its default explicitly. A zero Temperature is a
// configuration error (the T-Sigmoid divides by it), reported by panic rather
// than silently replaced.
type Config struct {
	Lambda      float64 // weight of the soft KD loss in Eq. 25; NaN selects the default
	Temperature float64 // T in the T-Sigmoid; NaN selects the default
	LR          float64
	Batch       int
	Epochs      int
}

// DefaultConfig returns the hyperparameters used in our experiments:
// λ = 0.5, T = 2, Adam at 1e-3, batch 32, 10 epochs.
func DefaultConfig() Config {
	return Config{Lambda: 0.5, Temperature: 2, LR: 1e-3, Batch: 32, Epochs: 10}
}

// withDefaults resolves NaN sentinels and fills the remaining unset
// hyperparameters (whose zero values are meaningless) with the DefaultConfig
// values. Lambda and Temperature are validated, not defaulted, on zero: an
// earlier revision treated 0 as "unset", which made pure hard-loss training
// (λ = 0) impossible to request.
func (c Config) withDefaults() Config {
	def := DefaultConfig()
	if math.IsNaN(c.Lambda) {
		c.Lambda = def.Lambda
	}
	if c.Lambda < 0 || c.Lambda > 1 {
		panic(fmt.Sprintf("kd: Lambda %v outside [0, 1]", c.Lambda))
	}
	if math.IsNaN(c.Temperature) {
		c.Temperature = def.Temperature
	}
	if c.Temperature <= 0 {
		panic(fmt.Sprintf("kd: Temperature %v must be positive (the zero value no longer selects the default; start from kd.DefaultConfig)", c.Temperature))
	}
	if c.LR == 0 {
		c.LR = def.LR
	}
	if c.Batch == 0 {
		c.Batch = def.Batch
	}
	if c.Epochs == 0 {
		c.Epochs = def.Epochs
	}
	return c
}

// Loss computes the combined distillation loss and its gradient with respect
// to the student logits, given precomputed teacher logits:
//
//	Loss = λ·Σ KL(z_tch ‖ z_stu) + (1-λ)·BCE(student, targets)
//
// The KL gradient through the T-Sigmoid is (z_stu - z_tch)/T per label.
func Loss(studentLogits, teacherLogits, targets *mat.Tensor, lambda, temp float64) (float64, *mat.Tensor) {
	bce, grad := nn.BCEWithLogits(studentLogits, targets)
	n := float64(len(studentLogits.Data))
	var kl float64
	for i, zs := range studentLogits.Data {
		zt := teacherLogits.Data[i]
		p := TSigmoid(zt, temp)
		q := TSigmoid(zs, temp)
		kl += BernoulliKL(p, q)
		// Combine: λ·dKL/dz + (1-λ)·dBCE/dz, both averaged over elements.
		grad.Data[i] = lambda*(q-p)/(temp*n) + (1-lambda)*grad.Data[i]
	}
	kl /= n
	return lambda*kl + (1-lambda)*bce, grad
}

// Distiller trains a student against a frozen teacher.
type Distiller struct {
	Teacher nn.Layer
	Student nn.Layer
	Cfg     Config
	Rng     *rand.Rand
}

// NewDistiller builds a distiller; teacher weights are never updated.
func NewDistiller(teacher, student nn.Layer, cfg Config, rng *rand.Rand) *Distiller {
	return &Distiller{Teacher: teacher, Student: student, Cfg: cfg.withDefaults(), Rng: rng}
}

// Run distills for Cfg.Epochs epochs and returns the per-epoch combined loss.
func (d *Distiller) Run(x, y *mat.Tensor) []float64 {
	opt := nn.NewAdam(d.Cfg.LR)
	losses := make([]float64, 0, d.Cfg.Epochs)
	for e := 0; e < d.Cfg.Epochs; e++ {
		losses = append(losses, d.epoch(x, y, opt))
	}
	return losses
}

func (d *Distiller) epoch(x, y *mat.Tensor, opt nn.Optimizer) float64 {
	n := x.N
	idx := d.Rng.Perm(n)
	var total float64
	var batches int
	for lo := 0; lo < n; lo += d.Cfg.Batch {
		hi := lo + d.Cfg.Batch
		if hi > n {
			hi = n
		}
		bi := idx[lo:hi]
		bx := x.Gather(bi)
		by := y.Gather(bi)
		teacherLogits := d.Teacher.Forward(bx)
		studentLogits, back := d.Student.Train(bx)
		loss, grad := Loss(studentLogits, teacherLogits, by, d.Cfg.Lambda, d.Cfg.Temperature)
		back(grad)
		opt.Step(d.Student.Params())
		total += loss
		batches++
	}
	if batches == 0 {
		return 0
	}
	return total / float64(batches)
}
