package online

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
	"time"
)

// learnerDigest hashes what a learner publishes and reports: the published
// teacher and student parameters, the published table's answers on a fixed
// probe, every class version, the Stats counters and losses (not the
// wall-clock fields), and the decision log's class, action, version and
// reason.
func learnerDigest(t *testing.T, l *Learner) uint64 {
	t.Helper()
	h := fnv.New64a()
	var b [8]byte
	u64 := func(vs ...uint64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	f64 := func(vs ...float64) {
		for _, v := range vs {
			u64(math.Float64bits(v))
		}
	}
	for _, name := range []string{TeacherClass, StudentClass} {
		for _, p := range class(t, l, name).Store().Load().Val.Params() {
			f64(p.W.Data...)
		}
	}
	if tab := class(t, l, DartClass).Tables().Load(); tab != nil {
		f64(tab.Val.QueryBatch(tableProbe(5)).Data...)
	}
	for _, c := range l.Classes() {
		u64(c.Version(), c.Published())
		u64(c.Versions()...)
	}
	st := l.Stats()
	u64(st.Version, st.Published, st.Ingested, st.Dropped, st.Useful, st.Late,
		st.Examples, st.Trained, st.Steps,
		st.StudentVersion, st.StudentPublished, st.Distilled, st.DistillSteps,
		st.DartVersion, st.DartPublished, st.Tabularized, st.DartAttempts, st.DartSkips)
	f64(st.Loss, st.LossTrend, st.DistillLoss, st.DistillTrend)
	if pol := l.Policy(); pol != nil {
		for _, d := range pol.Decisions() {
			h.Write([]byte(d.Class + "\x00" + d.Action + "\x00" + d.Reason + "\x00"))
			u64(d.Version)
		}
	}
	return h.Sum64()
}

// TestLearnerDigest pins the exact behaviour of the learner's duty cycle:
// rounds of training, distillation, auto-publishing and tabularization with
// every cadence due on every tick, then a forced swap and rollback of each
// class — ungated, and with the promotion gate on. A change to the order in
// which stages consume the training RNG, publish, or log decisions moves a
// digest. The FMA kernels may round differently off amd64, so other
// architectures skip.
func TestLearnerDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests recorded on amd64, running on %s", runtime.GOARCH)
	}
	for _, tc := range []struct {
		name   string
		policy *PolicyConfig
		want   uint64
	}{
		{"ungated", nil, 0x72a41931f24aaa2e},
		{"gated", &PolicyConfig{AdmitWindow: 2, AdmitThreshold: 0.5}, 0xf0a3a9264fea16e2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := dartLearnerConfig(t.TempDir())
			cfg.Duty = 1
			cfg.Tick = time.Nanosecond
			cfg.SwapInterval = time.Nanosecond
			cfg.DistillInterval = time.Nanosecond
			cfg.TabularizeInterval = time.Nanosecond
			cfg.Policy = tc.policy
			l, err := NewLearner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fillReservoir(l, 64)
			for i := 0; i < 6; i++ {
				fillReservoir(l, 8)
				l.maybeTrain()
				l.maybeTabularize()
			}
			for _, c := range l.Classes() {
				v, err := c.Swap()
				u := uint64(0)
				if err == nil {
					u = v
				}
				back, err := c.Rollback()
				if err != nil {
					back = 0
				}
				t.Logf("%s: swap v%d, rollback to v%d", c.Name(), u, back)
			}
			if l.Stats().Steps != 6 || l.Stats().DistillSteps != 6 {
				t.Fatalf("ticks did not all train: %+v", l.Stats())
			}
			if got := learnerDigest(t, l); got != tc.want {
				t.Errorf("learner digest %#x, want %#x", got, tc.want)
			}
		})
	}
}
