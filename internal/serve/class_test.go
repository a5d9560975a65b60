package serve

import (
	"bufio"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"dart/internal/dataprep"
	"dart/internal/mat"
	"dart/internal/online"
	"dart/internal/prefetch"
	"dart/internal/sim"
)

// class returns the learner's named serving class, failing the test when the
// learner does not run it.
func class(t testing.TB, l *online.Learner, name string) *online.Class {
	t.Helper()
	c, err := l.Class(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// waitOnEvents blocks until done() holds. It re-checks done after every
// event — next() delivering one explicit signal that the system made
// progress, such as one more served access — never on a timer, so a run is
// paced by the work itself and behaves the same under -race -count=N. It
// gives up, reporting false, when next says the event source is exhausted or
// 20 s have passed.
func waitOnEvents(next func() bool, done func() bool) bool {
	deadline := time.Now().Add(20 * time.Second)
	for !done() {
		if time.Now().After(deadline) || !next() {
			return done()
		}
	}
	return true
}

// streamForExamples opens a dart session over the wire and streams accesses
// through it — each reply is the event that can have fed the learner's
// reservoir — until the learner has assembled want training examples, enough
// for a forced tabularization to fit its kernels.
func streamForExamples(t *testing.T, conn net.Conn, br *bufio.Reader, l *online.Learner, id string, want uint64) {
	t.Helper()
	if rep := rpc(t, conn, br, Request{Op: "open", Session: id, Prefetcher: "dart", Degree: 4}); !rep.OK {
		t.Fatalf("open dart session failed: %s", rep.Err)
	}
	recs := sessionTrace(5, 8000)
	i := 0
	ok := waitOnEvents(func() bool {
		if i == len(recs) {
			return false
		}
		rec := recs[i]
		i++
		rep := rpc(t, conn, br, Request{
			Op: "access", Session: id,
			InstrID: rec.InstrID, PC: Hex64(rec.PC), Addr: Hex64(rec.Addr), IsLoad: rec.IsLoad,
		})
		if !rep.OK {
			t.Fatalf("access %d failed: %s", i, rep.Err)
		}
		return true
	}, func() bool { return l.Stats().Examples >= want })
	if !ok {
		t.Fatalf("examples never assembled after %d accesses: %+v", i, l.Stats())
	}
}

// checkSourceFallback pins what a class that has published nothing serves:
// its source class's published model, reporting the source's version — and
// tracking the source's publishes.
func checkSourceFallback(t *testing.T, c *servingClass, source *online.Class) {
	t.Helper()
	x := mat.New(c.data.History, c.data.InputDim())
	for i := range x.Data {
		x.Data[i] = float64(i%5) / 5
	}
	logits, ver := c.b.inferOne(x, "")
	if len(logits) != c.data.OutputDim() {
		t.Fatalf("fallback produced %d logits, want %d", len(logits), c.data.OutputDim())
	}
	if want := source.Version(); ver != want {
		t.Fatalf("fallback reported version %d, want %s v%d", ver, source.Name(), want)
	}
	if _, err := source.Swap(); err != nil {
		t.Fatal(err)
	}
	if _, ver = c.b.inferOne(x, ""); ver != source.Version() {
		t.Fatalf("fallback reported stale version %d after %s swapped to v%d", ver, source.Name(), source.Version())
	}
}

// TestClassTable drives every row of the learner's class table through the
// same script — swap bumps the version, rollback reverts it, the listing
// follows — once through the handle and once through the wire verbs, and
// pins the errors for a class the learner does not run. Nothing in the
// script names a class: a fourth row would be covered as-is.
func TestClassTable(t *testing.T) {
	l := testDartLearner(t, "")
	l.Start()
	defer l.Stop()
	conn, _, stopSrv := startServer(t, Config{SimCfg: smallSimCfg(), Online: l})
	defer stopSrv()
	br := bufio.NewReader(conn)
	streamForExamples(t, conn, br, l, "feed", 64) // dart swaps need a fitted reservoir

	listed := func(name string) ClassReply {
		t.Helper()
		cl := rpc(t, conn, br, Request{Op: "classes"})
		if !cl.OK || len(cl.Classes) != len(l.Classes()) {
			t.Fatalf("classes reply %+v", cl)
		}
		for i, row := range cl.Classes {
			if want := l.Classes()[i].Name(); row.Class != want {
				t.Fatalf("classes row %d is %q, want %q (pipeline order)", i, row.Class, want)
			}
			if row.Class == name {
				return row
			}
		}
		t.Fatalf("class %q not listed", name)
		return ClassReply{}
	}
	drivers := []struct {
		via            string
		swap, rollback func(c *online.Class) (uint64, error)
	}{
		{"handle",
			func(c *online.Class) (uint64, error) { return c.Swap() },
			func(c *online.Class) (uint64, error) { return c.Rollback() }},
		{"wire",
			func(c *online.Class) (uint64, error) {
				return wireVersion(rpc(t, conn, br, Request{Op: "swap", Class: c.Name()}))
			},
			func(c *online.Class) (uint64, error) {
				return wireVersion(rpc(t, conn, br, Request{Op: "rollback", Class: c.Name()}))
			}},
	}
	var prev *online.Class
	for _, c := range l.Classes() {
		if c.Source() != prev {
			t.Fatalf("%s derives from %v, want the row before it (%v)", c.Name(), c.Source(), prev)
		}
		prev = c
		for _, d := range drivers {
			// Make sure there is a version to come back to (dart starts empty).
			base, err := d.swap(c)
			if err != nil {
				t.Fatalf("%s via %s: swap: %v", c.Name(), d.via, err)
			}
			published := c.Published()
			next, err := d.swap(c)
			if err != nil || next != base+1 || c.Version() != next || c.Published() != published+1 {
				t.Fatalf("%s via %s: swap gave v%d (%v), serving v%d, published %d→%d; want v%d",
					c.Name(), d.via, next, err, c.Version(), published, c.Published(), base+1)
			}
			if row := listed(c.Name()); row.Version != next || row.Published != c.Published() ||
				len(row.Versions) == 0 || row.Versions[len(row.Versions)-1] != next {
				t.Fatalf("%s via %s: listing after swap %+v, want v%d", c.Name(), d.via, row, next)
			}
			back, err := d.rollback(c)
			if err != nil || back != base || c.Version() != base {
				t.Fatalf("%s via %s: rollback gave v%d (%v), serving v%d; want v%d",
					c.Name(), d.via, back, err, c.Version(), base)
			}
			latency, storage := c.Cost()
			if row := listed(c.Name()); row.Version != base || row.Latency != latency || row.StorageBytes != storage {
				t.Fatalf("%s via %s: listing after rollback %+v, want v%d cost (%d, %d)",
					c.Name(), d.via, row, base, latency, storage)
			}
		}
		if mo := rpc(t, conn, br, Request{Op: "model", Class: c.Name()}); !mo.OK || mo.Online == nil {
			t.Fatalf("model class=%s: %+v", c.Name(), mo)
		}
	}
	if rep := rpc(t, conn, br, Request{Op: "close", Session: "feed"}); !rep.OK {
		t.Fatalf("close: %s", rep.Err)
	}

	// A class this learner does not run — a tier left unconfigured, or a
	// name that never existed — fails every selector verb alike, and the
	// message lists the table it was looked up in.
	teacherOnly := testLearner(t, "")
	conn2, _, stopSrv2 := startServer(t, Config{SimCfg: smallSimCfg(), Online: teacherOnly})
	defer stopSrv2()
	br2 := bufio.NewReader(conn2)
	for _, name := range []string{online.StudentClass, online.DartClass, "oracle"} {
		if _, err := teacherOnly.Class(name); err == nil || !strings.Contains(err.Error(), "have teacher") {
			t.Fatalf("Class(%q) on a teacher-only learner: %v", name, err)
		}
		for _, op := range []string{"model", "swap", "rollback"} {
			rep := rpc(t, conn2, br2, Request{Op: op, Class: name})
			if rep.OK || !strings.Contains(rep.Err, name) || !strings.Contains(rep.Err, "have teacher") {
				t.Fatalf("%s class=%s on a teacher-only learner: %+v", op, name, rep)
			}
		}
	}
	if _, err := l.Class("oracle"); err == nil || !strings.Contains(err.Error(), "have teacher, student, dart") {
		t.Fatalf("unknown class on the full learner: %v", err)
	}
	if c, err := l.Class(""); err != nil || c.Name() != online.TeacherClass {
		t.Fatalf(`Class("") = %v, %v; want the teacher`, c, err)
	}
}

// wireVersion reads a swap/rollback reply the way a handle call returns.
func wireVersion(rep Reply) (uint64, error) {
	if !rep.OK {
		return 0, errors.New(rep.Err)
	}
	return rep.Version, nil
}

// TestDartOpensThroughOneClassMap: a static-Config.Model engine and a
// dart-tier-learner engine both serve "dart" out of the same class map. The
// static row is untapped and unversioned — Version 0, Result.Prefetcher
// "DART", bit-identical to offline sim.Run; the learner row is tapped and
// versioned, and replaces the static row when both are configured.
func TestDartOpensThroughOneClassMap(t *testing.T) {
	data := dataprep.Default()
	h := testHierarchy(t, data)
	static := Config{SimCfg: smallSimCfg(), Model: h, Data: data, ModelLatency: 37, ModelStorage: 1 << 16}
	recs := sessionTrace(11, 1500)

	e := NewEngine(static)
	if c := e.classes["dart"]; c == nil || c.tapped || len(e.classes) != 1 {
		t.Fatalf("static engine class map %+v, want one untapped dart row", e.classes)
	}
	if err := e.Open("s", "dart", 4); err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		resp, err := e.Access("s", rec)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Version != 0 {
			t.Fatalf("static dart access %d reported version %d", i, resp.Version)
		}
	}
	if n := e.StatsSnapshot().Batched; n == 0 {
		t.Fatal("static dart session never went through the class batcher")
	}
	served := e.Drain()["s"]
	offline := sim.Run(recs, prefetch.NewNNPrefetcher("DART", prefetch.TableModel{H: h},
		data, static.ModelLatency, static.ModelStorage, 4), static.SimCfg)
	if served.Prefetcher != "DART" || served != offline {
		t.Fatalf("static dart session diverged from offline sim.Run:\n served  %+v\n offline %+v", served, offline)
	}

	// Same static config plus a dart-tier learner: the learner's row wins.
	l := testDartLearner(t, "")
	both := static
	both.Online = l
	both.Data = l.Data()
	e = NewEngine(both)
	defer e.Drain()
	if len(e.classes) != len(l.Classes()) {
		t.Fatalf("class map has %d rows, want %d (static dart replaced, not kept beside)", len(e.classes), len(l.Classes()))
	}
	for _, c := range l.Classes() {
		if row := e.classes[c.Prefetcher()]; row == nil || !row.tapped || row.name != c.Prefetcher() {
			t.Fatalf("learner class %s not served as a tapped %q row: %+v", c.Name(), c.Prefetcher(), row)
		}
	}
	if err := e.Open("v", "dart", 4); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Sessions != 1 {
		t.Fatalf("learner dart session not tapped: %d taps", st.Sessions)
	}
	var last uint64
	for _, rec := range recs[:200] {
		resp, err := e.Access("v", rec)
		if err != nil {
			t.Fatal(err)
		}
		last = resp.Version
	}
	// No table yet: the row degrades to its source and reports that version.
	if want := class(t, l, online.StudentClass).Version(); last != want {
		t.Fatalf("learner dart session reported version %d, want the student fallback v%d", last, want)
	}
	res, err := e.Close("v")
	if err != nil || res.Prefetcher != "dart" {
		t.Fatalf("learner dart session result prefetcher %q (%v), want \"dart\"", res.Prefetcher, err)
	}
}
