// Package metrics provides the evaluation measures used throughout the
// paper: micro-averaged F1 for multi-label memory-access prediction
// (Sec. VII-A4) and the prefetching measures (accuracy, coverage, IPC
// improvement) computed by the simulator.
package metrics

// Confusion accumulates multi-label binary classification counts.
type Confusion struct {
	TP, FP, FN, TN int
}

// Update adds one prediction/target pair.
func (c *Confusion) Update(pred, target bool) {
	switch {
	case pred && target:
		c.TP++
	case pred && !target:
		c.FP++
	case !pred && target:
		c.FN++
	default:
		c.TN++
	}
}

// Precision is TP / (TP + FP); 0 when undefined.
func (c *Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall is TP / (TP + FN); 0 when undefined.
func (c *Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 is the harmonic mean of precision and recall; 0 when undefined.
func (c *Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// F1FromLogits computes micro-F1 of multi-label logits against 0/1 targets,
// thresholding logits at 0 (σ(z) > 0.5 ⇔ z > 0).
func F1FromLogits(logits, targets []float64) float64 {
	var c Confusion
	for i, z := range logits {
		c.Update(z > 0, targets[i] > 0.5)
	}
	return c.F1()
}
