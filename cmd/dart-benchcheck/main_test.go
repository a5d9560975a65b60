package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The sample input is split into the sections `make bench-ci` appends to
// bench-ci.out, one per `go test -bench` invocation. Every row passes on it.
const (
	sampleMatMul = `goos: linux
goarch: amd64
BenchmarkMatMul/serial/n64-2       7    101000 ns/op    0 B/op
BenchmarkMatMul/par/n64/w1-2     40     29000 ns/op
BenchmarkMatMul/par/n64/w4-2     40     24000 ns/op
BenchmarkMatMul/serial/n512-2     2  69000000 ns/op
BenchmarkMatMul/par/n512/w1-2    10  12100000 ns/op
BenchmarkMatMul/par/n512/w4-2    10  11200000 ns/op
BenchmarkMatMul/serial/n1024-2    1 550000000 ns/op
PASS
`
	sampleOnline = `BenchmarkTeacherInfer-2  434  553897 ns/op  44032 storage_bytes  9000 B/op  300 allocs/op
BenchmarkStudentInfer-2  712  321442 ns/op  13952 storage_bytes  6000 B/op  200 allocs/op
BenchmarkDartInfer-2  951  249812 ns/op  7982 storage_bytes  160000 B/op  1911 allocs/op
BenchmarkDartInferQuant-2  1500  161234 ns/op  1995 storage_bytes  84000 B/op  983 allocs/op
BenchmarkDartInferParity-2  600  411046 ns/op  249812 float_ns  161234 int8_ns
BenchmarkQuantRowAccum-2  40000000  29.8 ns/op  0 B/op  0 allocs/op
BenchmarkPolicyDecision-2  50000000  21.7 ns/op  0 B/op  0 allocs/op
`
	sampleWire = `BenchmarkWireCodec-2  550000  2156 ns/op  0 B/op  0 allocs/op
BenchmarkWireAccessBinary-2  2000000  529 ns/op  0 B/op  0 allocs/op
BenchmarkWireAccessJSON-2  150000  8101 ns/op  1969 B/op  45 allocs/op
`
	sampleRouter = `BenchmarkRouterAccess-2  200000  6012 ns/op  120 B/op  3 allocs/op
BenchmarkDirectAccess-2  400000  2987 ns/op  80 B/op  2 allocs/op
`
	sampleSim = `BenchmarkCacheLookup-2  82370337  21.56 ns/op  0 B/op  0 allocs/op
BenchmarkCacheFill-2  28101712  36.11 ns/op  0 B/op  0 allocs/op
`
	sampleBench = sampleMatMul + sampleOnline + sampleWire + sampleRouter + sampleSim
)

// gate runs the checker over in and returns its exit code and report.
func gate(in string) (int, string) {
	var out strings.Builder
	code := run(strings.NewReader(in), &out)
	return code, out.String()
}

// replace is strings.Replace that fails the test when old is absent, so a
// fixture edit cannot silently become a no-op.
func replace(t *testing.T, in, old, new string) string {
	t.Helper()
	if !strings.Contains(in, old) {
		t.Fatalf("fixture has no %q", old)
	}
	return strings.Replace(in, old, new, 1)
}

// without drops the result lines of the named benchmarks from in.
func without(in string, names ...string) string {
	var kept []string
	for _, line := range strings.SplitAfter(in, "\n") {
		m := benchLine.FindStringSubmatch(line)
		drop := false
		for _, name := range names {
			drop = drop || (m != nil && m[1] == name)
		}
		if !drop {
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, "")
}

// wantExit asserts the exit code and that the report contains every want.
func wantExit(t *testing.T, in string, code int, want ...string) {
	t.Helper()
	got, out := gate(in)
	if got != code {
		t.Fatalf("exit %d, want %d; output:\n%s", got, code, out)
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Fatalf("output lacks %q:\n%s", w, out)
		}
	}
}

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleMatMul))
	if err != nil {
		t.Fatal(err)
	}
	names := 0
	for key := range got {
		if !strings.Contains(key, "@") {
			names++
		}
	}
	if names != 7 {
		t.Fatalf("parsed %d benchmarks, want 7: %v", names, got)
	}
	if got["BenchmarkMatMul/par/n512/w4"] != 11200000 {
		t.Fatalf("n512/w4 = %v", got["BenchmarkMatMul/par/n512/w4"])
	}
	// go test omits the -N suffix at GOMAXPROCS=1.
	got, err = parseBench(strings.NewReader("BenchmarkHierarchyQueryBatch  100   1700000 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got["BenchmarkHierarchyQueryBatch"] != 1700000 {
		t.Fatalf("suffix-less line = %v", got)
	}
}

func TestParseBenchKeepsMinimumAcrossCounts(t *testing.T) {
	in := "BenchmarkMatMul/serial/n64-1 5 200000 ns/op\nBenchmarkMatMul/serial/n64-1 5 150000 ns/op\n"
	got, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got["BenchmarkMatMul/serial/n64"] != 150000 {
		t.Fatalf("min not kept: %v", got)
	}
}

func TestParseBenchStorageMetric(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleOnline))
	if err != nil {
		t.Fatal(err)
	}
	if got["BenchmarkStudentInfer@storage_bytes"] != 13952 {
		t.Fatalf("student storage = %v, want 13952", got["BenchmarkStudentInfer@storage_bytes"])
	}
	if got["BenchmarkTeacherInfer@storage_bytes"] != 44032 {
		t.Fatalf("teacher storage = %v, want 44032", got["BenchmarkTeacherInfer@storage_bytes"])
	}
}

func TestParseBenchAllocsMetric(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleWire))
	if err != nil {
		t.Fatal(err)
	}
	if v := got["BenchmarkWireAccessBinary@allocs"]; v != 0 {
		t.Fatalf("binary allocs = %v, want 0", v)
	}
	if v := got["BenchmarkWireAccessJSON@allocs"]; v != 45 {
		t.Fatalf("json allocs = %v, want 45", v)
	}
	// Repeated names keep the minimum, same as ns/op.
	in := "BenchmarkWireCodec-1 100 2000 ns/op 32 B/op 2 allocs/op\n" +
		"BenchmarkWireCodec-1 100 2100 ns/op 0 B/op 0 allocs/op\n"
	got, err = parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if v := got["BenchmarkWireCodec@allocs"]; v != 0 {
		t.Fatalf("min allocs not kept: %v", v)
	}
}

// TestGatePassesWithinTolerance: a healthy run passes with every row within
// its bar, and the report lists the rows in table order — deterministic, so
// two CI logs diff cleanly.
func TestGatePassesWithinTolerance(t *testing.T) {
	code, out := gate(sampleBench)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
	at := -1
	for _, r := range rows {
		name := strings.ReplaceAll(r.name, "{n}", "512")
		i := strings.Index(out, "ok   "+name)
		if i < 0 || i < at {
			t.Fatalf("row %q missing or out of table order:\n%s", name, out)
		}
		at = i
	}
	if !strings.Contains(out, "all 15 rows passed") {
		t.Fatalf("output:\n%s", out)
	}
}

// TestEveryRowAtItsBar drives each row through three cases on otherwise
// healthy input: it passes at its bar (one step past it for a strict ">"
// bar), fails one step past the bar the other way, and fails closed with
// exit 2 when any benchmark it reads is missing.
func TestEveryRowAtItsBar(t *testing.T) {
	healthy, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	clone := func() map[string]float64 {
		m := make(map[string]float64, len(healthy))
		for k, v := range healthy {
			m[k] = v
		}
		return m
	}
	exit := func(m map[string]float64) int {
		var out strings.Builder
		return check(m, &out)
	}
	for _, r := range rows {
		r := r.resolve(healthy)
		t.Run(r.name, func(t *testing.T) {
			// Only num moves, toward the bar, so rows sharing a benchmark
			// keep passing; the sample's integer denominators keep bar*den
			// exact.
			den := 1.0
			if r.den != "" {
				den = healthy[r.den]
			}
			edge := r.bar * den
			pass, fail := edge, edge-1
			switch r.op {
			case "<=", "==":
				fail = edge + 1
			case ">":
				pass, fail = edge+1, edge
			}
			for _, c := range []struct {
				num  float64
				want int
			}{{pass, 0}, {fail, 1}} {
				m := clone()
				m[r.num] = c.num
				if got := exit(m); got != c.want {
					t.Fatalf("%s %v/%v: exit %d, want %d", r.name, c.num, den, got, c.want)
				}
			}
			for _, key := range []string{r.num, r.den} {
				if key == "" {
					continue
				}
				m := clone()
				delete(m, key)
				if strings.HasPrefix(key, "BenchmarkMatMul/") {
					// The {n} row falls back to smaller sizes; only an
					// entirely unmeasured side is missing.
					side := key[:strings.LastIndex(key, "/n")]
					for k := range m {
						if strings.HasPrefix(k, side+"/") {
							delete(m, k)
						}
					}
				}
				if got := exit(m); got != 2 {
					t.Fatalf("without %s: exit %d, want 2", key, got)
				}
			}
		})
	}
}

func TestGateFailsOnRegression(t *testing.T) {
	// One failing row fails the run; the rest are still reported.
	slow := replace(t, sampleBench,
		"BenchmarkMatMul/par/n512/w4-2    10  11200000 ns/op",
		"BenchmarkMatMul/par/n512/w4-2    10  69000000 ns/op")
	wantExit(t, slow, 1, "FAIL speedup(par w4 vs serial, n=512)", "ok   overhead(routed vs direct access)", "1 of 15 rows failed")
}

func TestGateFailsOnLostSpeedup(t *testing.T) {
	// par w4 barely faster than serial at n=512: the engine silently fell
	// back to the slow path, whatever the host's absolute speed.
	slow := replace(t, sampleBench,
		"BenchmarkMatMul/par/n512/w4-2    10  11200000 ns/op",
		"BenchmarkMatMul/par/n512/w4-2    10  40000000 ns/op")
	wantExit(t, slow, 1, "FAIL speedup(par w4 vs serial")
}

func TestGateSpeedupUsesLargestCommonSize(t *testing.T) {
	// n1024 has only a serial result, so n512 is the largest common size.
	got, err := parseBench(strings.NewReader(sampleMatMul))
	if err != nil {
		t.Fatal(err)
	}
	var par row
	for _, r := range rows {
		if strings.Contains(r.num, "{n}") {
			par = r
		}
	}
	r := par.resolve(got)
	if r.name != "speedup(par w4 vs serial, n=512)" || !r.pass(got[r.num], got[r.den]) {
		t.Fatalf("resolved %+v", r)
	}
	if r := par.resolve(map[string]float64{"BenchmarkMatMul/serial/n64": 1}); strings.Contains(r.num+r.den, "64") {
		t.Fatalf("resolved to a size with one side only: %+v", r)
	}
}

func TestGateFailsClosedWhenNothingMatches(t *testing.T) {
	// Renamed benchmarks parse fine but feed no row: error, never a pass
	// with zero rows checked.
	renamed := "BenchmarkMatMul/pool/n512/w4-1 10 11200000 ns/op\nBenchmarkSomethingElse-1 5 12345 ns/op\n"
	wantExit(t, renamed, 2, "MISS speedup(par w4 vs serial, n={n})", "input is missing")
}

func TestGateErrorsOnEmptyInput(t *testing.T) {
	wantExit(t, "no benchmarks here", 2, "no benchmark results")
}

func TestGateErrorsOnMissingInput(t *testing.T) {
	var out strings.Builder
	if code := runArgs([]string{filepath.Join(t.TempDir(), "nope.out")}, nil, &out); code != 2 {
		t.Fatalf("missing file: exit %d, want 2", code)
	}
	// The gate takes no flags: a leftover baseline flag is a usage error.
	if code := runArgs([]string{"-baseline", "x.json", "bench-ci.out"}, nil, &out); code != 2 {
		t.Fatalf("extra args: exit %d, want 2", code)
	}
	path := filepath.Join(t.TempDir(), "bench-ci.out")
	if err := os.WriteFile(path, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := runArgs([]string{path}, nil, &out); code != 0 {
		t.Fatalf("file input: exit %d:\n%s", code, out.String())
	}
	if code := runArgs(nil, strings.NewReader(sampleBench), &out); code != 0 {
		t.Fatalf("stdin input: exit %d:\n%s", code, out.String())
	}
}

// benchCmd is one `go test -bench` line of the Makefile's bench-ci recipe.
type benchCmd struct {
	re       *regexp.Regexp // top-level part of the -bench pattern
	pkgs     []string
	benchmem bool
}

// benchCICommands parses the bench-ci recipe of the repo's Makefile.
func benchCICommands(t *testing.T) []benchCmd {
	t.Helper()
	raw, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	pattern := regexp.MustCompile(`-bench '([^']+)'`)
	var cmds []benchCmd
	in := false
	for _, line := range strings.Split(strings.ReplaceAll(string(raw), "\\\n", " "), "\n") {
		if strings.HasPrefix(line, "bench-ci:") {
			in = true
			continue
		}
		if in && !strings.HasPrefix(line, "\t") {
			break
		}
		m := pattern.FindStringSubmatch(line)
		if !in || m == nil {
			continue
		}
		top, _, _ := strings.Cut(m[1], "/") // go test matches "/"-split levels
		c := benchCmd{re: regexp.MustCompile(top), benchmem: strings.Contains(line, "-benchmem")}
		for _, f := range strings.Fields(line) {
			if strings.HasPrefix(f, "./") {
				c.pkgs = append(c.pkgs, f)
			}
		}
		cmds = append(cmds, c)
	}
	if len(cmds) == 0 {
		t.Fatal("no `-bench '...'` lines in the Makefile's bench-ci recipe")
	}
	return cmds
}

// definesBench reports whether a _test.go file in pkg declares fn.
func definesBench(t *testing.T, pkg, fn string) bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("../..", pkg, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(src), "func "+fn+"(b *testing.B)") {
			return true
		}
	}
	return false
}

// TestRowsSelectedByMakefile: every benchmark a row reads is selected by a
// bench-ci `-bench` line over a package that defines it — with -benchmem
// where the row reads allocs/op — so dropping a benchmark from the Makefile
// fails tier-1, not only the CI bench job.
func TestRowsSelectedByMakefile(t *testing.T) {
	cmds := benchCICommands(t)
	for _, r := range rows {
		for _, key := range []string{r.num, r.den} {
			if key == "" {
				continue
			}
			name, metric, _ := strings.Cut(key, "@")
			fn, _, _ := strings.Cut(name, "/")
			selected := false
			for _, c := range cmds {
				if !c.re.MatchString(fn) || (metric == "allocs" && !c.benchmem) {
					continue
				}
				for _, pkg := range c.pkgs {
					selected = selected || definesBench(t, pkg, fn)
				}
			}
			if !selected {
				t.Errorf("row %q reads %s, which no bench-ci line selects", r.name, key)
			}
		}
	}
}

func TestOnlineGatePassesWithinTolerance(t *testing.T) {
	// The serving hierarchy at its thinnest passing margins: each tier one
	// nanosecond (or byte) ahead of the tier it derives from.
	in := replace(t, sampleBench, "321442 ns/op  13952 storage_bytes", "553896 ns/op  44031 storage_bytes")
	in = replace(t, in, "249812 ns/op  7982 storage_bytes", "553895 ns/op  7982 storage_bytes")
	in = replace(t, in, "161234 ns/op", "553894 ns/op")
	wantExit(t, in, 0, "ok   speedup(student vs teacher infer)", "ok   shrink(student vs teacher storage_bytes)", "ok   speedup(dart vs student infer)")
}

func TestOnlineGateFailsOnRegression(t *testing.T) {
	// The teacher gets faster than the student: the tier has no reason left
	// to exist, whatever either timing is on its own.
	fast := replace(t, sampleBench, "BenchmarkTeacherInfer-2  434  553897 ns/op", "BenchmarkTeacherInfer-2  434  300000 ns/op")
	wantExit(t, fast, 1, "FAIL speedup(student vs teacher infer)")
}

func TestOnlineGateFailsClosedOnMissingBenchmark(t *testing.T) {
	wantExit(t, without(sampleBench, "BenchmarkTeacherInfer"), 2, "MISS speedup(student vs teacher infer)", "BenchmarkTeacherInfer@storage_bytes")
}

// TestOnlineGateFailsClosedWithoutSection: the whole online section of
// bench-ci.out gone (its `go test` step skipped) reports every row it feeds.
func TestOnlineGateFailsClosedWithoutSection(t *testing.T) {
	wantExit(t, sampleMatMul+sampleWire+sampleRouter+sampleSim, 2,
		"MISS BenchmarkPolicyDecision@allocs", "MISS speedup(dart vs student infer)", "MISS shrink(quant vs float dart storage_bytes)")
}

func TestStudentGateFailsWhenNotFaster(t *testing.T) {
	slow := replace(t, sampleBench, "BenchmarkStudentInfer-2  712  321442 ns/op", "BenchmarkStudentInfer-2  712  553897 ns/op")
	wantExit(t, slow, 1, "FAIL speedup(student vs teacher infer)")
}

func TestDartGateFailsWhenNotFasterThanStudent(t *testing.T) {
	slow := replace(t, sampleBench, "BenchmarkDartInfer-2  951  249812 ns/op", "BenchmarkDartInfer-2  951  330000 ns/op")
	wantExit(t, slow, 1, "FAIL speedup(dart vs student infer)")
}

func TestStudentGateFailsWhenNotSmaller(t *testing.T) {
	bloated := replace(t, sampleBench, "321442 ns/op  13952 storage_bytes", "321442 ns/op  44032 storage_bytes")
	wantExit(t, bloated, 1, "FAIL shrink(student vs teacher storage_bytes)")
}

func TestStudentGateFailsClosedOnMissingStudentBench(t *testing.T) {
	wantExit(t, without(sampleBench, "BenchmarkStudentInfer"), 2, "MISS speedup(dart vs student infer)")
}

func TestPolicyGateFailsOnSingleAlloc(t *testing.T) {
	// ObserveLive runs on every shadow-compared batch: one allocation fails
	// even with ns/op unchanged.
	leaky := replace(t, sampleBench, "21.7 ns/op  0 B/op  0 allocs/op", "21.7 ns/op  48 B/op  1 allocs/op")
	wantExit(t, leaky, 1, "FAIL BenchmarkPolicyDecision@allocs")
}

func TestPolicyGateFailsClosedOnMissingBench(t *testing.T) {
	// The allocs column vanishing (-benchmem dropped) is as missing as the
	// benchmark itself.
	noMem := replace(t, sampleBench, "21.7 ns/op  0 B/op  0 allocs/op", "21.7 ns/op")
	wantExit(t, noMem, 2, "MISS BenchmarkPolicyDecision@allocs")
}

func TestBinaryGatePassesAtBaseline(t *testing.T) {
	// JSON access exactly 5x the binary cost, at zero allocations: the wire
	// rows pass at their bars.
	in := replace(t, sampleBench, "BenchmarkWireAccessJSON-2  150000  8101 ns/op", "BenchmarkWireAccessJSON-2  150000  2645 ns/op")
	wantExit(t, in, 0, "ok   BenchmarkWireCodec@allocs", "ok   BenchmarkWireAccessBinary@allocs", "ok   speedup(binary vs json wire access)")
}

func TestBinaryGateFailsOnNsRegression(t *testing.T) {
	// Binary access slows to 4x cheaper than JSON in the same run.
	slow := replace(t, sampleBench, "BenchmarkWireAccessBinary-2  2000000  529 ns/op", "BenchmarkWireAccessBinary-2  2000000  2026 ns/op")
	wantExit(t, slow, 1, "FAIL speedup(binary vs json wire access)")
}

func TestBinaryGateFailsOnSingleAlloc(t *testing.T) {
	leaky := replace(t, sampleBench, "529 ns/op  0 B/op  0 allocs/op", "529 ns/op  48 B/op  1 allocs/op")
	wantExit(t, leaky, 1, "FAIL BenchmarkWireAccessBinary@allocs")
}

func TestBinaryGateFailsClosedOnMissingWireBench(t *testing.T) {
	wantExit(t, without(sampleBench, "BenchmarkWireCodec"), 2, "MISS BenchmarkWireCodec@allocs", "input is missing BenchmarkWireCodec@allocs")
}

func TestBinaryGateFailsClosedWithoutSection(t *testing.T) {
	wantExit(t, sampleMatMul+sampleOnline+sampleRouter+sampleSim, 2,
		"MISS BenchmarkWireCodec@allocs", "MISS BenchmarkWireAccessBinary@allocs", "MISS speedup(binary vs json wire access)")
}

func TestWireSpeedupGateFailsBelowBar(t *testing.T) {
	// JSON access only 3x the binary cost.
	slow := replace(t, sampleBench, "BenchmarkWireAccessJSON-2  150000  8101 ns/op", "BenchmarkWireAccessJSON-2  150000  1587 ns/op")
	wantExit(t, slow, 1, "FAIL speedup(binary vs json wire access)")
}

func TestWireSpeedupFailsClosedWithoutJSONBench(t *testing.T) {
	wantExit(t, without(sampleBench, "BenchmarkWireAccessJSON"), 2, "MISS speedup(binary vs json wire access)", "BenchmarkWireAccessJSON")
}

func TestQuantGatePassesAtBaseline(t *testing.T) {
	// Storage exactly 4x smaller and exactly as many allocations as float.
	in := replace(t, sampleBench, "1995 storage_bytes  84000 B/op  983 allocs/op", "1995.5 storage_bytes  84000 B/op  1911 allocs/op")
	wantExit(t, in, 0, "ok   parity(quant vs float dart infer)", "ok   shrink(quant vs float dart storage_bytes)", "ok   allocs(quant vs float dart infer)", "ok   BenchmarkQuantRowAccum@allocs")
}

// The int8 tables need not beat float, but more than 25% slower fails the
// parity row.
func TestQuantGateFailsWhenNotFasterThanFloat(t *testing.T) {
	slow := replace(t, sampleBench, "249812 float_ns  161234 int8_ns", "249812 float_ns  320000 int8_ns")
	wantExit(t, slow, 1, "FAIL parity(quant vs float dart infer)")
}

func TestQuantGateFailsBelowShrink(t *testing.T) {
	// Quantized storage only 3.2x below float (a float64 side table crept in).
	bloated := replace(t, sampleBench, "161234 ns/op  1995 storage_bytes", "161234 ns/op  2500 storage_bytes")
	wantExit(t, bloated, 1, "FAIL shrink(quant vs float dart storage_bytes)")
}

func TestQuantGateFailsOnRowKernelAlloc(t *testing.T) {
	leaky := replace(t, sampleBench, "29.8 ns/op  0 B/op  0 allocs/op", "29.8 ns/op  64 B/op  1 allocs/op")
	wantExit(t, leaky, 1, "FAIL BenchmarkQuantRowAccum@allocs")
}

func TestQuantGateFailsClosedOnMissingBench(t *testing.T) {
	wantExit(t, without(sampleBench, "BenchmarkDartInferQuant", "BenchmarkDartInferParity"), 2, "MISS parity(quant vs float dart infer)", "BenchmarkDartInferQuant@storage_bytes")
}

func TestQuantGateFailsClosedWithoutSection(t *testing.T) {
	wantExit(t, without(sampleBench, "BenchmarkDartInferQuant", "BenchmarkDartInferParity", "BenchmarkQuantRowAccum"), 2,
		"MISS BenchmarkQuantRowAccum@allocs", "MISS parity(quant vs float dart infer)", "MISS allocs(quant vs float dart infer)")
}

func TestRouterGatePassesAtBaseline(t *testing.T) {
	// Routed access exactly 3x direct.
	in := replace(t, sampleBench, "BenchmarkRouterAccess-2  200000  6012 ns/op", "BenchmarkRouterAccess-2  200000  8961 ns/op")
	wantExit(t, in, 0, "ok   overhead(routed vs direct access)")
}

func TestRouterGateFailsOnOverhead(t *testing.T) {
	slow := replace(t, sampleBench, "BenchmarkRouterAccess-2  200000  6012 ns/op", "BenchmarkRouterAccess-2  200000  12100 ns/op")
	wantExit(t, slow, 1, "FAIL overhead(routed vs direct access)")
}

func TestRouterGateFailsClosedOnMissingBench(t *testing.T) {
	wantExit(t, without(sampleBench, "BenchmarkRouterAccess"), 2, "MISS overhead(routed vs direct access)", "input is missing BenchmarkRouterAccess")
}

func TestRouterGateFailsClosedWithoutSection(t *testing.T) {
	wantExit(t, sampleMatMul+sampleOnline+sampleWire+sampleSim, 2, "MISS overhead(routed vs direct access)", "BenchmarkRouterAccess, BenchmarkDirectAccess")
}

func TestSimCacheGateFailsOnSingleAlloc(t *testing.T) {
	// Every simulated access probes and fills the cache: one allocation on
	// the miss-evict path fails.
	leaky := replace(t, sampleBench, "36.11 ns/op  0 B/op  0 allocs/op", "36.11 ns/op  64 B/op  1 allocs/op")
	wantExit(t, leaky, 1, "FAIL BenchmarkCacheFill@allocs")
}

func TestSimCacheGateFailsClosedWithoutSection(t *testing.T) {
	wantExit(t, sampleMatMul+sampleOnline+sampleWire+sampleRouter, 2,
		"MISS BenchmarkCacheLookup@allocs", "MISS BenchmarkCacheFill@allocs")
}
