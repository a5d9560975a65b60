package nn

import (
	"math"

	"dart/internal/mat"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	Step(params []*Param)
}

// Adam implements the Adam optimizer with bias correction.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	Clip                  float64 // global-norm clip; 0 disables

	t int
	m map[*Param]*mat.Matrix
	v map[*Param]*mat.Matrix
}

// NewAdam returns Adam with the conventional defaults and learning rate lr.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Param]*mat.Matrix), v: make(map[*Param]*mat.Matrix)}
}

// Step applies one Adam update and zeroes the gradients.
func (o *Adam) Step(params []*Param) {
	o.t++
	if o.Clip > 0 {
		var norm float64
		for _, p := range params {
			for _, g := range p.G.Data {
				norm += g * g
			}
		}
		norm = math.Sqrt(norm)
		if norm > o.Clip {
			scale := o.Clip / norm
			for _, p := range params {
				p.G.Scale(scale)
			}
		}
	}
	c1 := 1 - math.Pow(o.Beta1, float64(o.t))
	c2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for _, p := range params {
		m, ok := o.m[p]
		if !ok {
			m = mat.New(p.W.Rows, p.W.Cols)
			o.m[p] = m
			o.v[p] = mat.New(p.W.Rows, p.W.Cols)
		}
		v := o.v[p]
		for i, g := range p.G.Data {
			m.Data[i] = o.Beta1*m.Data[i] + (1-o.Beta1)*g
			v.Data[i] = o.Beta2*v.Data[i] + (1-o.Beta2)*g*g
			mh := m.Data[i] / c1
			vh := v.Data[i] / c2
			p.W.Data[i] -= o.LR * mh / (math.Sqrt(vh) + o.Eps)
		}
		p.ZeroGrad()
	}
}
