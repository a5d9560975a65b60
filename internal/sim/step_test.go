package sim

import (
	"testing"

	"dart/internal/trace"
)

// steppedStride is a minimal stride prefetcher for driving the stepper.
type steppedStride struct {
	last   uint64
	degree int
}

func (p *steppedStride) Name() string { return "step-stride" }
func (p *steppedStride) OnAccess(a Access) []uint64 {
	out := make([]uint64, 0, p.degree)
	if p.last != 0 && a.Block > p.last {
		d := a.Block - p.last
		for i := 1; i <= p.degree; i++ {
			out = append(out, a.Block+uint64(i)*d)
		}
	}
	p.last = a.Block
	return out
}
func (p *steppedStride) Latency() int      { return 40 }
func (p *steppedStride) StorageBytes() int { return 64 }

func testTrace(seed int64, n int) []trace.Record {
	return trace.Generate(trace.AppSpec{
		Name: "step", Pages: 400, Streams: 3,
		Strides: []int64{1, 3}, IrregularFrac: 0.1, Seed: seed,
	}, n)
}

// TestStepMatchesRun is the bit-identity contract the serving engine relies
// on: feeding records one at a time through Sim.Step must reproduce Run
// exactly, including derived floating-point fields.
func TestStepMatchesRun(t *testing.T) {
	recs := testTrace(21, 8000)
	cfg := DefaultConfig()
	cfg.LLCBlocks = 4096

	want := Run(recs, &steppedStride{degree: 3}, cfg)

	s := NewSim(&steppedStride{degree: 3}, cfg)
	for _, r := range recs {
		s.Step(r)
	}
	if got := s.Result(); got != want {
		t.Fatalf("stepped result differs from Run:\n got %+v\nwant %+v", got, want)
	}
}

// TestStepInfoConsistent checks the per-step report against the aggregate.
func TestStepInfoConsistent(t *testing.T) {
	recs := testTrace(7, 5000)
	cfg := DefaultConfig()
	cfg.LLCBlocks = 2048
	s := NewSim(&steppedStride{degree: 2}, cfg)
	var hits, late, issued int
	for _, r := range recs {
		st := s.Step(r)
		if st.Hit {
			hits++
		}
		if st.Late {
			late++
		}
		issued += len(st.Prefetches)
	}
	res := s.Result()
	if hits != res.DemandHits {
		t.Fatalf("step hits %d != result %d", hits, res.DemandHits)
	}
	if late != res.LateCovered {
		t.Fatalf("step lates %d != result %d", late, res.LateCovered)
	}
	if issued != res.PrefetchIssued {
		t.Fatalf("step prefetches %d != result %d", issued, res.PrefetchIssued)
	}
}

// TestMidStreamResultSnapshot ensures Result is a pure snapshot: calling it
// mid-stream must not perturb the final outcome.
func TestMidStreamResultSnapshot(t *testing.T) {
	recs := testTrace(33, 4000)
	cfg := DefaultConfig()
	cfg.LLCBlocks = 2048
	want := Run(recs, &steppedStride{degree: 2}, cfg)
	s := NewSim(&steppedStride{degree: 2}, cfg)
	for i, r := range recs {
		s.Step(r)
		if i%500 == 0 {
			_ = s.Result()
		}
	}
	if got := s.Result(); got != want {
		t.Fatalf("mid-stream snapshots perturbed the run:\n got %+v\nwant %+v", got, want)
	}
}

// TestFeedbackMatchesCounters: each Step reports at most one outcome, and
// the outcomes it reports add up to the useful/late prefetch counters.
func TestFeedbackMatchesCounters(t *testing.T) {
	recs := testTrace(5, 8000)
	cfg := DefaultConfig()
	cfg.LLCBlocks = 4096
	s := NewSim(&steppedStride{degree: 3}, cfg)
	var useful, late int
	for _, r := range recs {
		st := s.Step(r)
		if st.Useful && st.Late {
			t.Fatalf("access %d reported both a useful and a late prefetch", r.InstrID)
		}
		if st.Useful {
			useful++
		}
		if st.Late {
			late++
		}
	}
	res := s.Result()
	if late != res.LateCovered {
		t.Fatalf("late steps %d != LateCovered %d", late, res.LateCovered)
	}
	if useful+late != res.PrefetchUseful {
		t.Fatalf("outcome steps %d != PrefetchUseful %d", useful+late, res.PrefetchUseful)
	}
	if res.PrefetchUseful == 0 {
		t.Fatal("test trace produced no useful prefetches; outcomes untested")
	}
}
