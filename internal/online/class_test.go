package online

import (
	"testing"

	"dart/internal/mat"
	"dart/internal/prefetch"
	"dart/internal/sim"
)

// class returns the named serving class, failing the test when the learner
// does not run it.
func class(t testing.TB, l *Learner, name string) *Class {
	t.Helper()
	c, err := l.Class(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// stageOf returns the stage of the named class.
func stageOf(t testing.TB, l *Learner, name string) *stage {
	t.Helper()
	for _, s := range l.stages {
		if s.class.name == name {
			return s
		}
	}
	t.Fatalf("no %q stage", name)
	return nil
}

func hasClass(l *Learner, name string) bool {
	_, err := l.Class(name)
	return err == nil
}

// TestAgreementMatchesPrefetcherAtZeroLogit pins the one agreement measure to
// the decision the prefetcher actually takes: NNPrefetcher.Apply issues a bit
// only when its logit is strictly positive, so a logit of exactly 0 is a "no"
// and must agree with a negative logit, not with a positive one.
func TestAgreementMatchesPrefetcherAtZeroLogit(t *testing.T) {
	data := tinyData()
	pf := prefetch.NewNNPrefetcher("pin", nil, data, 0, 0, data.OutputDim())
	issues := func(logit float64) bool {
		logits := make([]float64, data.OutputDim())
		for i := range logits {
			logits[i] = -1
		}
		logits[0] = logit
		return len(pf.Apply(sim.Access{Block: 1 << 20}, logits)) > 0
	}
	if issues(0) || !issues(1e-9) {
		t.Fatalf("prefetcher threshold moved: issues(0)=%v issues(+eps)=%v", issues(0), issues(1e-9))
	}
	tensor := func(v ...float64) *mat.Tensor { return mat.TensorFromSlice(1, 1, len(v), v) }
	for _, tc := range []struct {
		a, b  float64
		agree bool
	}{
		{0, -1, true}, {0, 0, true}, {0, 1, false}, {-1, 1, false}, {2, 1, true},
	} {
		match, total := Agreement(tensor(tc.a), tensor(tc.b))
		if total != 1 || (match == 1) != tc.agree {
			t.Errorf("Agreement(%v, %v) = %d/%d, want agree=%v (prefetcher issues: %v vs %v)",
				tc.a, tc.b, match, total, tc.agree, issues(tc.a), issues(tc.b))
		}
		if (issues(tc.a) == issues(tc.b)) != tc.agree {
			t.Errorf("case (%v, %v) disagrees with the prefetcher's own decisions", tc.a, tc.b)
		}
	}
}
