package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConfusionCounts(t *testing.T) {
	var c Confusion
	c.Update(true, true)   // TP
	c.Update(true, false)  // FP
	c.Update(false, true)  // FN
	c.Update(false, false) // TN
	if c.TP != 1 || c.FP != 1 || c.FN != 1 || c.TN != 1 {
		t.Fatalf("counts %+v", c)
	}
	if c.Precision() != 0.5 || c.Recall() != 0.5 || c.F1() != 0.5 {
		t.Fatalf("P=%v R=%v F1=%v", c.Precision(), c.Recall(), c.F1())
	}
}

func TestPerfectF1(t *testing.T) {
	logits := []float64{3, -2, 5, -1}
	targets := []float64{1, 0, 1, 0}
	if got := F1FromLogits(logits, targets); got != 1 {
		t.Fatalf("perfect F1 = %v", got)
	}
}

func TestAllWrongF1(t *testing.T) {
	logits := []float64{-3, 2}
	targets := []float64{1, 0}
	if got := F1FromLogits(logits, targets); got != 0 {
		t.Fatalf("all-wrong F1 = %v", got)
	}
}

func TestUndefinedF1IsZero(t *testing.T) {
	var c Confusion
	if c.F1() != 0 || c.Precision() != 0 || c.Recall() != 0 {
		t.Fatal("empty confusion should yield zeros")
	}
	// Predicting nothing when nothing is positive: no TP, no FP, no FN.
	if got := F1FromLogits([]float64{-1, -1}, []float64{0, 0}); got != 0 {
		t.Fatalf("degenerate F1 = %v", got)
	}
}

func TestF1Bounds(t *testing.T) {
	f := func(logits []float64) bool {
		targets := make([]float64, len(logits))
		for i, z := range logits {
			if math.Signbit(z) {
				targets[i] = 1 // deliberately anti-correlated
			}
		}
		f1 := F1FromLogits(logits, targets)
		return f1 >= 0 && f1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestF1ProbsMatchesLogits(t *testing.T) {
	logits := []float64{2, -1, 0.3, -0.2}
	probs := make([]float64, len(logits))
	for i, z := range logits {
		probs[i] = 1 / (1 + math.Exp(-z))
	}
	targets := []float64{1, 0, 0, 1}
	var c Confusion
	for i, p := range probs {
		c.Update(p > 0.5, targets[i] > 0.5)
	}
	if F1FromLogits(logits, targets) != c.F1() {
		t.Fatal("logit and probability F1 disagree")
	}
}
