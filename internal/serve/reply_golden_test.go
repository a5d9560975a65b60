package serve

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dart/internal/online"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/replies.golden from the current encoder")

// goldenPolicyStats is a gated engine's summary: two gates, one with a live
// version and one still empty.
func goldenPolicyStats() online.PolicyStats {
	return online.PolicyStats{
		Admitted: 3, Held: 2, RolledBack: 1, Skipped: 4, Decisions: 10,
		Gates: []online.GateState{
			{Class: online.StudentClass, PendingBatches: 5, PendingAgreement: 0.8125,
				LiveVersion: 7, LiveAgreement: 0.9375, LiveWindows: 12, Divergent: 1},
			{Class: online.DartClass, PendingBatches: 0, PendingAgreement: 0},
		},
	}
}

// goldenDecisions is a decision log: an admit stamped in a non-UTC zone at
// .040 s with every evidence field set, and a skip that was never stamped.
func goldenDecisions() []online.Decision {
	ist := time.FixedZone("IST", 5*3600+30*60)
	return []online.Decision{
		{Seq: 9, Time: time.Date(2026, 3, 14, 9, 26, 53, 40_000_000, ist),
			Class: online.DartClass, Action: online.ActionAdmit, Version: 4,
			Reason:    "agreement 0.875 >= 0.70 over 8 shadow batches",
			Agreement: 0.875, Batches: 8, Labels: 512, Cosine: 0.96875,
			LatencyCycles: 82, StorageBytes: 1513172},
		{Seq: 10, Class: online.DartClass, Action: online.ActionSkip,
			Reason: "student v4 unchanged since the last build"},
	}
}

// goldenReplies builds every fixture reply the golden file pins, in order.
func goldenReplies(t *testing.T) []struct {
	name string
	rep  Reply
} {
	st := goldenPolicyStats()
	ab := &ABStats{Batches: 6, Labels: 384, Agree: 360, Rate: 0.9375}
	return []struct {
		name string
		rep  Reply
	}{
		{"policy gated", Reply{OK: true, Policy: &PolicyReply{Enabled: true, PolicyStats: st, Log: goldenDecisions()}}},
		{"policy ungated", policyVerb(testLearner(t, ""), Request{Op: "policy"})},
		{"stats", Reply{OK: true, Stats: &StatsReply{
			Sessions: 2, Accepted: 1000, Batches: 40, Batched: 640, MaxBatch: 16,
			AB:     ab,
			Policy: &PolicyReply{Enabled: true, PolicyStats: st},
		}}},
		{"access", AccessReply("s1", AccessResult{
			Seq: 42, Hit: true, Late: true, Version: 3,
			Prefetches: []uint64{0x10000040, 0x10000080},
		})},
	}
}

// TestReplyWireGolden pins the JSON bytes of the replies whose wire structs
// are built from engine and learner snapshots: a gated and an ungated policy
// reply, a stats reply carrying the A/B digest and the policy summary, and an
// access reply with prefetches. Run with -update to rewrite the file.
func TestReplyWireGolden(t *testing.T) {
	var got bytes.Buffer
	for _, f := range goldenReplies(t) {
		got.WriteString("# " + f.name + "\n")
		got.Write(MarshalReply(f.rep))
		got.WriteByte('\n')
	}
	path := filepath.Join("testdata", "replies.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("reply bytes differ from %s\n got:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}
