package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50} // the textbook nearest-rank example
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {99, 50}, {100, 50},
	} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // unsorted on purpose
	}
	if got := percentile(hundred, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples must be NaN")
	}
}

// The expected cut points are what Python's statistics.quantiles(xs, n=4)
// prints, so spreads computed here are the driver's.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{1, 2, 4, 8, 16}, [3]float64{1.5, 4, 12}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestJudge(t *testing.T) {
	tight := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same code", tight, []float64{100, 100, 101, 99, 101}, "lower", verdictWithin},
		{"20% slower, bound 10%", tight, []float64{120, 121, 119, 120, 120}, "lower", verdictRegressed},
		{"20% less throughput", tight, []float64{80, 81, 79, 80, 80}, "higher", verdictRegressed},
		{"20% more throughput", tight, []float64{120, 121, 119, 120, 120}, "higher", verdictImproved},
		{"5% worse is inside the bound", tight, []float64{105, 106, 104, 105, 105}, "lower", verdictWithin},
		{"spread wider than the bound", []float64{80, 100, 120, 90, 110}, []float64{85, 100, 118, 95, 112}, "lower", verdictUnresolved},
		{"wide spread but every run better", []float64{80, 100, 120, 90, 110}, []float64{40, 50, 60, 45, 55}, "lower", verdictImproved},
		{"wins every pair by less than A's spread", []float64{100, 104, 96, 102, 98}, []float64{99.9, 103.9, 95.9, 101.9, 97.9}, "lower", verdictWithin},
	} {
		cmp := comparison{a: c.a, b: c.b, better: c.better, bound: 0.10}
		cmp.judge()
		if cmp.verdict != c.want {
			t.Errorf("%s: verdict %q, want %q (worse by %.3f, spreads %.3f %.3f, wins %d/%d)",
				c.name, cmp.verdict, c.want, cmp.worseBy, cmp.spreadA, cmp.spreadB, cmp.wins, cmp.pairs)
		}
	}
	// allocs_per_access near zero: 0.001 -> 0.004 is four times worse and
	// nothing; 137 -> 145 is 5.8% worse.
	for _, c := range []struct {
		a, b []float64
		want string
	}{
		{[]float64{0.001, 0.001, 0.001}, []float64{0.004, 0.004, 0.004}, verdictWithin},
		{[]float64{0.001, 0.001, 0.001}, []float64{0.06, 0.06, 0.06}, verdictRegressed},
		{[]float64{137, 137, 137}, []float64{145, 145, 145}, verdictRegressed},
		{[]float64{137, 137, 137}, []float64{140, 140, 140}, verdictWithin},
	} {
		cmp := comparison{a: c.a, b: c.b, better: "lower", bound: 0.05, abs: 0.05}
		cmp.judge()
		if cmp.verdict != c.want {
			t.Errorf("abs-or-relative bound: %v -> %v: verdict %q, want %q", c.a[0], c.b[0], cmp.verdict, c.want)
		}
	}
	// An exact metric (bound 0) over runs with different seeds: identical pair
	// by pair is within bound however the seeds spread; one digit lost is not.
	seeds := []float64{0.31, 0.35, 0.33, 0.30}
	for _, c := range []struct {
		b    []float64
		want string
	}{
		{[]float64{0.31, 0.35, 0.33, 0.30}, verdictWithin},
		{[]float64{0.31, 0.35, 0.32, 0.30}, verdictRegressed},
	} {
		cmp := comparison{a: seeds, b: c.b, better: "higher", bound: 0}
		cmp.judge()
		if cmp.verdict != c.want {
			t.Errorf("exact metric, B %v: verdict %q, want %q", c.b, cmp.verdict, c.want)
		}
	}
	w, _ := workloadByName("wire-dart")
	live, _ := workloadByName("live-dart")
	for _, d := range endToEnd {
		if d.exact && (d.boundOn(w) != 0 || d.boundOn(live) != d.Bound) {
			t.Errorf("%s: bound %v on a frozen workload, %v on live-dart", d.Name, d.boundOn(w), d.boundOn(live))
		}
	}
	cmp := comparison{a: []float64{10, 10, 10, 10}, b: []float64{9, 11, 10, 9}, better: "lower", bound: 0.1}
	cmp.judge()
	if cmp.wins != 2 || cmp.pairs != 3 {
		t.Errorf("pairs: B won %d of %d, want 2 of 3 (a tie counts for neither)", cmp.wins, cmp.pairs)
	}
}

// A fake engine acks from its own goroutines, as session actors do. The
// driver must submit every access exactly once, in order, with at most one
// access of a session in flight.
func TestFanInDeliversEachAccessOnceInOrder(t *testing.T) {
	const sessions, n = 16, 300
	traces := make([][]Record, sessions)
	for i := range traces {
		traces[i] = make([]Record, n)
		for k := range traces[i] {
			traces[i][k].InstrID = uint64(i*n + k)
		}
	}
	f := newFanIn(sessions)
	var mu sync.Mutex
	seen := make([][]uint64, sessions)
	inFlight := make([]int, sessions)
	var acks sync.WaitGroup
	submits := make([]func(Record) error, sessions)
	for i := range submits {
		ack := f.ack(i)
		submits[i] = func(r Record) error {
			mu.Lock()
			inFlight[i]++
			if inFlight[i] > 1 {
				t.Errorf("session %d has %d accesses in flight", i, inFlight[i])
			}
			seen[i] = append(seen[i], r.InstrID)
			seq := uint64(len(seen[i]))
			mu.Unlock()
			acks.Add(1)
			go func() {
				defer acks.Done()
				mu.Lock()
				inFlight[i]--
				mu.Unlock()
				ack(seq)
			}()
			return nil
		}
	}
	lat := make([][]float64, sessions)
	bad := make([]error, sessions)
	f.run(traces, submits, lat, bad, nil, 0)
	acks.Wait()
	for i := range traces {
		if bad[i] != nil {
			t.Errorf("session %d: %v", i, bad[i])
		}
		if len(seen[i]) != n || len(lat[i]) != n {
			t.Fatalf("session %d: %d submitted, %d latencies, want %d", i, len(seen[i]), len(lat[i]), n)
		}
		for k, id := range seen[i] {
			if id != uint64(i*n+k) {
				t.Fatalf("session %d: access %d was record %d", i, k, id)
			}
		}
	}
}

func TestFanInReportsOutOfOrderAck(t *testing.T) {
	f := newFanIn(1)
	ack := f.ack(0)
	submits := []func(Record) error{func(Record) error { go ack(7); return nil }}
	bad := make([]error, 1)
	f.run([][]Record{make([]Record, 3)}, submits, make([][]float64, 1), bad, nil, 0)
	if bad[0] == nil {
		t.Fatal("an ack with the wrong seq must fail the session")
	}
}

// The smoke run: a tiny pipeline build and 1/50-size rounds. Every workload
// must emit every end-to-end metric with nothing failed, and the traced run
// every per-layer metric.
func TestQuickSmoke(t *testing.T) {
	m, err := buildModel(quickBuild)
	if err != nil {
		t.Fatal(err)
	}
	opt := options{seed: 3, quick: true, model: m, outDir: t.TempDir()}
	for _, w := range workloads {
		res, err := runTimed(w, opt)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted != w.quick().sessions*w.quick().accesses {
			t.Errorf("%s: correct %v, failed %d of %d", w.name, res.Correct, res.Failed, res.Attempted)
		}
		for _, d := range endToEnd {
			v, ok := res.Metrics[d.Name]
			positive := v.Value > 0 || (d.Name == "prefetch_accuracy_pct" && v.Value == 0) // a tiny model may prefetch nothing useful
			if !ok || v.Unit != d.Unit || !positive || math.IsInf(v.Value, 0) {
				t.Errorf("%s: %s = %+v (present %v), want a positive finite value in %s", w.name, d.Name, v, ok, d.Unit)
			}
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want exactly the %d end-to-end ones", w.name, len(res.Metrics), len(endToEnd))
		}
		if !res.local["req_p99_us"] || !res.local["allocs_per_access"] || len(res.local) != 2 {
			t.Errorf("%s: metrics kept off the result line: %v", w.name, res.local)
		}
	}

	w, _ := workloadByName("fanin-dart-int8")
	res, err := runTraced(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("traced %s: %d of %d failed", w.name, res.Failed, res.Attempted)
	}
	for _, d := range perLayer {
		v, ok := res.Metrics[d.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("traced %s: %s = %+v (present %v)", w.name, d.Name, v, ok)
		}
	}
	if q := res.Metrics["serve.batcher.queries"].Value; q < 0.9*float64(res.Attempted) {
		t.Errorf("the tables served %v queries for %d accesses", q, res.Attempted)
	}
	if _, err := os.Stat(opt.outDir + "/trace-" + w.name + ".json"); err != nil {
		t.Errorf("span file: %v", err)
	}
}

// BENCHMARK.json names the same workloads and metrics, with the same units,
// directions and bounds, as the tables this program prints from.
func TestBenchmarkJSONInStep(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark's directory")
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q / %q", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
		}
	}
	var driven []metricDef // the end-to-end metrics the result line carries
	for _, d := range endToEnd {
		if !d.local {
			driven = append(driven, d)
		}
	}
	same("end_to_end", doc.EndToEnd, driven)
	same("per_layer", doc.PerLayer, perLayer)
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the round counts are frozen for %d", doc.RunSeconds, runSeconds)
	}
}
