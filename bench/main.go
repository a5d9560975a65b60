// Command bench is the repository's benchmark: five closed-loop workloads
// driven in-process over real loopback TCP through the entry points dart-serve
// and dart-router use, with a model class actually serving. See README.md.
//
//	bash bench/run.sh [-workload name] [-seed N] [-trace 0|1] [-out file]
//	bash bench/run.sh -compare a.jsonl b.jsonl
//
// The driver adds -seconds, which scales the frozen round counts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef is one row of BENCHMARK.json's metric tables; bench_test.go holds
// the two in step. The unexported fields are -compare's alone.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by

	abs    float64 // it may also worsen by this much in its own unit, for a metric that sits near zero
	exact  bool    // a simulator metric: -compare holds it to a bound of 0 on the frozen workloads
	local  bool    // printed, kept by -out and shown by -compare, but not one of BENCHMARK.json's end_to_end
	report bool    // -compare shows it without a verdict
}

// endToEnd is what a user of the serving system sees, one value per workload.
// A request is one 64-access frame on the wire workloads and one access on
// fanin-dart-int8.
//
// Bound is what BENCHMARK.json carries: one number per metric for all five
// workloads, which the benchmark is accepted on by the spread of ten runs with
// ten different seeds. So it has to cover the noisiest workload and, for the
// simulator metrics, the difference between generated traces. The timing
// bounds are set by the host: the 2-core reference VM has two speeds about 25%
// apart and moves between them every hour or two (repeatability.txt).
//
// The last two are end-to-end metrics that cannot carry such a bound, so
// BENCHMARK.json lists them per layer (serve.req_p99_us,
// serve.allocs_per_access) and the normal run prints them all the same. The
// p99 of a closed loop on two cores is scheduler noise — same-code runs spread
// it by 0.2 to 1.1 — so it is report-only, as the issue rules for a metric no
// lengthening holds to its bound. allocs_per_access is 0.03 on the stride
// workloads and 136 on wire-dart, repeating to three digits on both, and
// -compare holds it to the issue's 0.05 relative or 0.05 absolute.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_acc_s", Unit: "acc/s", Better: "higher", Bound: 0.25},
	{Name: "req_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_access", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "heap_live_mb", Unit: "MiB", Better: "lower", Bound: 0.15},
	{Name: "sim_ipc", Unit: "instr/cycle", Better: "higher", Bound: 0.15, exact: true},
	{Name: "prefetch_accuracy_pct", Unit: "%", Better: "higher", Bound: 0.10, exact: true},
	{Name: "req_p99_us", Unit: "us", Better: "lower", local: true, report: true},
	{Name: "allocs_per_access", Unit: "count", Better: "lower", Bound: 0.05, abs: 0.05, local: true},
}

// boundOn is the bound -compare holds a metric to on one workload, between two
// sets of runs with the same seeds. On the frozen workloads the simulator
// metrics are exact — the same trace through the same tables gives the same
// IPC to the last digit, so any loss is a regression. On live-dart, where a
// learner changes the model under the sessions, same-code runs spread them by
// up to 0.1 and BENCHMARK.json's bound is the one that holds.
func (d metricDef) boundOn(w workload) float64 {
	if d.exact && w.frozen() {
		return 0
	}
	return d.Bound
}

// runSeconds is BENCHMARK.json's run_seconds: how long the timed rounds of
// every workload take on the reference host at their frozen sizes.
const runSeconds = 6

type options struct {
	seed    int64
	seconds float64 // scales the frozen round counts: see timedRounds
	quick   bool    // smoke-test sizes: tiny build, 1/50 rounds, one timed round
	model   *model  // prebuilt model shared across workloads (tests only)
	outDir  string  // span files
}

func (o options) size() buildSize {
	if o.quick {
		return quickBuild
	}
	return fullBuild
}

// timedRounds is how many timed rounds a run drives. Sizes are access counts,
// not durations: the frozen count fills runSeconds on the reference host, and
// the driver's --seconds scales it, so a run submits the same operations
// whichever code serves them and however fast the host is.
func (o options) timedRounds(w workload) int {
	if o.quick {
		return 1
	}
	return max(1, int(math.Round(float64(w.rounds)*o.seconds/runSeconds)))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the JSON object a run prints on its last line.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result is an outcome plus the fields -out keeps so that -compare can group
// runs.
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	outcome
	local map[string]bool // metrics left off the result line
}

func main() {
	name := flag.String("workload", "", "run one workload (default: all five in turn)")
	seed := flag.Int64("seed", 1, "offsets the serving-trace generator seeds")
	seconds := flag.Float64("seconds", runSeconds, "scales the timed round counts, which are frozen for this value")
	traced := flag.Int("trace", 0, "1: the traced run — per-layer metrics, span files, the layer ladder")
	quick := flag.Bool("quick", false, "smoke-test sizes")
	out := flag.String("out", "", "append each result as a JSON line to this file")
	compare := flag.Bool("compare", false, "compare two -out files: bench -compare a.jsonl b.jsonl")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare a.jsonl b.jsonl")
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fatalf("unknown workload %q", *name)
		}
		selected = []workload{w}
	}
	opt := options{seed: *seed, seconds: *seconds, quick: *quick, outDir: filepath.Join("bench", "out")}
	failed := false
	for _, w := range selected {
		var res result
		var err error
		if *traced == 1 {
			res, err = runTraced(w, opt)
		} else {
			res, err = runTimed(w, opt)
		}
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		failed = failed || !res.Correct
		if *out != "" {
			if err := appendResult(*out, res); err != nil {
				fatalf("%v", err)
			}
		}
		printResult(res)
	}
	if failed {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// printResult prints every metric by name with its unit, then the result as
// one JSON object on the last line.
func printResult(res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-18s %-34s %16.6g %s\n", res.Workload, n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("%-18s ops %d  ops_failed %d\n", res.Workload, res.Attempted, res.Failed)
	last := res.outcome
	last.Metrics = map[string]metricValue{}
	for n, v := range res.Metrics {
		if !res.local[n] {
			last.Metrics[n] = v
		}
	}
	line, err := json.Marshal(last)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func appendResult(path string, res result) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timed accumulates the rounds of one measurement.
type timed struct {
	rounds     []roundStats
	lat        []float64 // pooled request round trips, µs
	heapLiveMB float64
}

func (t *timed) add(p *prepared, st roundStats) {
	t.rounds = append(t.rounds, st)
	for _, l := range p.lat {
		t.lat = append(t.lat, l...)
	}
	if st.heapLiveMB > 0 {
		t.heapLiveMB = st.heapLiveMB
	}
}

func (t *timed) ops() (attempted, failed int, firstErr error) {
	for _, st := range t.rounds {
		attempted += st.accesses
		failed += st.failed
		if firstErr == nil {
			firstErr = st.err
		}
	}
	return
}

// perRound returns the median over rounds of f. A median, not a ratio of sums:
// one round that a noisy neighbour or a GC cycle landed on does not move it.
func (t *timed) perRound(f func(roundStats) float64) float64 {
	xs := make([]float64, len(t.rounds))
	for i, st := range t.rounds {
		xs[i] = f(st)
	}
	return median(xs)
}

func (t *timed) throughput() float64 {
	return t.perRound(func(st roundStats) float64 { return float64(st.accesses) / st.wallS })
}

func (t *timed) cpuPerAccess() float64 {
	return t.perRound(func(st roundStats) float64 { return st.cpuS / float64(st.accesses) * 1e6 })
}

func (t *timed) allocsPerAccess() float64 {
	var mallocs uint64
	accesses := 0
	for _, st := range t.rounds {
		mallocs += st.mallocs
		accesses += st.accesses
	}
	return float64(mallocs) / float64(accesses)
}

// merged folds every timed session into one simulator result.
func (t *timed) merged() SimResult {
	var all []SimResult
	for _, st := range t.rounds {
		all = append(all, st.results...)
	}
	return mergeResults(all)
}

// simIPC and accuracyPct are the median over rounds of the round's merged
// sessions. On the frozen workloads every round gives the same result, so
// this is the IPC of the merge of all of them; on live-dart, where the table a
// learner happens to have published moves a round's IPC by a third, the median
// is what repeats.
func (t *timed) simIPC() float64 {
	return t.perRound(func(st roundStats) float64 { return mergeResults(st.results).IPC })
}

func (t *timed) accuracyPct() float64 {
	return t.perRound(func(st roundStats) float64 { return accuracyPct(mergeResults(st.results)) })
}

// runTimed is the normal run: set the workload up, drive its timed rounds and
// report the end-to-end metrics. Tracing is off.
func runTimed(w workload, opt options) (result, error) {
	if opt.quick {
		w = w.quick()
	}
	t0 := time.Now()
	p, err := setUp(w, opt.seed, opt.size(), opt.model)
	if err != nil {
		return result{}, err
	}
	setupS := time.Since(t0).Seconds()
	defer p.tearDown()

	t := &timed{}
	for n := opt.timedRounds(w); len(t.rounds) < n; {
		t.add(p, p.round(nil, 0, len(t.rounds) == n-1)) // live heap after the last round
	}

	attempted, failed, firstErr := t.ops()
	if firstErr != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, firstErr)
	}
	fmt.Printf("%-18s %d timed rounds, %d request samples\n", w.name, len(t.rounds), len(t.lat))
	values := map[string]float64{
		"setup_s":               setupS,
		"throughput_acc_s":      t.throughput(),
		"req_p50_us":            percentile(t.lat, 50),
		"req_p99_us":            percentile(t.lat, 99),
		"cpu_us_per_access":     t.cpuPerAccess(),
		"allocs_per_access":     t.allocsPerAccess(),
		"heap_live_mb":          t.heapLiveMB,
		"sim_ipc":               t.simIPC(),
		"prefetch_accuracy_pct": t.accuracyPct(),
	}
	return newResult(w, opt, attempted, failed, endToEnd, values), nil
}

func newResult(w workload, opt options, attempted, failed int, defs []metricDef, values map[string]float64) result {
	res := result{Workload: w.name, Seed: opt.seed, local: map[string]bool{}, outcome: outcome{
		Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(defs)),
	}}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
		if d.local {
			res.local[d.Name] = true
		}
	}
	return res
}
