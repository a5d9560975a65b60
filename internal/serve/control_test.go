package serve

import (
	"encoding/json"
	"strings"
	"testing"

	"dart/internal/dataprep"
	"dart/internal/sim"
)

// crashOpens are open requests that used to end the daemon or make it do
// unbounded work per access: a machine whose prefetch queue NewSim cannot
// allocate, and a degree past the machine's MaxDegree.
func crashOpens(t testing.TB) [][]byte {
	t.Helper()
	huge := sim.DefaultConfig()
	huge.PrefetchQueue = 1 << 60
	var out [][]byte
	for _, req := range []Request{
		{Op: "open", Session: "q", Prefetcher: "stride", Sim: &huge},
		{Op: "open", Session: "d", Prefetcher: "stride", Degree: 1 << 30},
	} {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// TestOpenRejectsOversizedInputs sends each crash input through Control the
// way a connection loop does: the reply is an error naming the limit, and
// the engine keeps serving.
func TestOpenRejectsOversizedInputs(t *testing.T) {
	e := NewEngine(Config{SimCfg: smallSimCfg()})
	defer e.Drain()
	for i, line := range crashOpens(t) {
		var req Request
		if err := json.Unmarshal(line, &req); err != nil {
			t.Fatal(err)
		}
		rep := Control(engineFront{e}, req, nil)
		if rep.OK || !strings.Contains(rep.Err, []string{"PrefetchQueue", "MaxDegree"}[i]) {
			t.Fatalf("%s answered %+v", line, rep)
		}
	}
	if len(e.Sessions()) != 0 {
		t.Fatalf("rejected opens left sessions %v", e.Sessions())
	}
	deg := smallSimCfg().MaxDegree
	if err := e.Open("at-max", "stride", deg); err != nil {
		t.Fatalf("degree %d = MaxDegree refused: %v", deg, err)
	}
	if _, err := e.Access("at-max", sessionTrace(1, 1)[0]); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRefusesDefaultDegreePastMaxDegree: an omitted degree is the
// default 4, checked against the machine's MaxDegree like an explicit one.
func TestOpenRefusesDefaultDegreePastMaxDegree(t *testing.T) {
	cfg := smallSimCfg()
	cfg.MaxDegree = 2
	e := NewEngine(Config{SimCfg: cfg})
	defer e.Drain()
	err := e.OpenSession("s", SessionOptions{Prefetcher: "stride"})
	if err == nil || err.Error() != "serve: degree 4 exceeds the session machine's MaxDegree 2" {
		t.Fatalf("open with degree omitted on a MaxDegree 2 machine: %v", err)
	}
}

// FuzzControl answers arbitrary bytes, decoded as one JSON request, through
// Control on an in-process engine serving a static table class, follows the
// request with a few accesses on its session, and closes every session it
// opened. Nothing may panic. The crash inputs seed it and replay as an
// ordinary test; `make fuzz` digs for more.
func FuzzControl(f *testing.F) {
	for _, line := range crashOpens(f) {
		f.Add(line)
	}
	f.Add([]byte(`{"op":"open","session":"s1","prefetcher":"dart","degree":4,"tenant":"t","weight":3}`))
	f.Add([]byte(`{"op":"stats"}`))
	f.Add([]byte(`{"op":"close","session":"s1"}`))
	data := dataprep.Default()
	cfg := Config{SimCfg: smallSimCfg(), Model: testHierarchy(f, data), Data: data}
	recs := sessionTrace(7, 4)
	f.Fuzz(func(t *testing.T, line []byte) {
		var req Request
		if json.Unmarshal(line, &req) != nil {
			return
		}
		e := NewEngine(cfg)
		defer e.Drain()
		opened := make(map[string]struct{})
		Control(engineFront{e}, req, opened)
		for _, rec := range recs {
			e.Access(req.Session, rec)
		}
		for id := range opened {
			if _, err := e.Close(id); err != nil {
				t.Fatalf("close %q: %v", id, err)
			}
		}
	})
}
