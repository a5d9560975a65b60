// Command dart-benchcheck is the CI perf gate behind `make bench-ci`: it
// parses `go test -bench -benchmem` output and checks it against one fixed
// table of rows. Every row compares numbers measured in the same run on the
// same host, and every bar is a constant, so the gate gives the same answer
// on any machine — there is no baseline file, no tolerance and no flag.
// Timing trajectories across commits are the benchmark's job (bench/README.md,
// `bash bench/run.sh -compare`), not this gate's.
//
//	make bench-ci                                # runs the benchmarks, then
//	go run ./cmd/dart-benchcheck bench-ci.out    # (or the output on stdin)
//
// A row is one of:
//
//   - zero allocs: the benchmark's allocs/op is exactly 0. These are the
//     paths that run once per access or per batch.
//   - a same-run ratio num/den against a constant bar: at least the bar
//     (">="), strictly more than it (">"), or at most the bar ("<=").
//
// Exit status 0 when every row passes, 1 when a row fails, and 2 when the
// input cannot be read or lacks a benchmark some row reads. The last case
// fails closed: a benchmark dropped from bench-ci must not silently stop
// gating.
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// row is one gated claim. num and den are keys of the parseBench map: a
// benchmark name for ns/op, "<name>@allocs" for allocs/op and
// "<name>@<unit>" for a metric the benchmark reports. A "{n}" in both keys
// stands for the largest size measured on both sides.
type row struct {
	name     string
	num, den string // den is empty for zero-allocs rows
	op       string // ">=", ">" or "<=" for ratios; "==" (bar 0) for zero-allocs rows
	bar      float64
}

// zeroAllocs is the row gating name's allocs/op at exactly 0.
func zeroAllocs(name string) row {
	return row{name: name + "@allocs", num: name + "@allocs", op: "=="}
}

// rows is the gate, checked and printed in this order.
var rows = []row{
	// Per-access and per-batch hot paths: the DARTWIRE1 codec and served
	// access, the promotion policy's ObserveLive (called on every
	// shadow-compared batch), the quantized row kernel inside every int8
	// table query, and the simulator cache's hit and miss-evict paths that
	// every simulated access takes. One steady-state allocation fails.
	zeroAllocs("BenchmarkWireCodec"),
	zeroAllocs("BenchmarkWireAccessBinary"),
	zeroAllocs("BenchmarkPolicyDecision"),
	zeroAllocs("BenchmarkQuantRowAccum"),
	zeroAllocs("BenchmarkCacheLookup"),
	zeroAllocs("BenchmarkCacheFill"),

	// The parallel blocked matmul engine, at a cap of four workers, must pay
	// for itself over the seed's serial kernel.
	{"speedup(par w4 vs serial, n={n})", "BenchmarkMatMul/serial/n{n}", "BenchmarkMatMul/par/n{n}/w4", ">=", 2},

	// Down the serving hierarchy each tier beats the one it derives from:
	// the student is faster and smaller than the teacher, and the tables
	// are faster than the student — the paper's core claim.
	{"speedup(student vs teacher infer)", "BenchmarkTeacherInfer", "BenchmarkStudentInfer", ">", 1},
	{"shrink(student vs teacher storage_bytes)", "BenchmarkTeacherInfer@storage_bytes", "BenchmarkStudentInfer@storage_bytes", ">", 1},
	{"speedup(dart vs student infer)", "BenchmarkStudentInfer", "BenchmarkDartInfer", ">", 1},

	// int8 tables against the float tables of the same structure. Both
	// widths run one query path, so int8 is not held to be faster: it may be
	// at most 25% slower (float/int8 time >= 0.8) for at least 4x less
	// storage, and allocates no more. The two times come from one loop that
	// alternates the widths, so host load cannot land on one side only.
	{"parity(quant vs float dart infer)", "BenchmarkDartInferParity@float_ns", "BenchmarkDartInferParity@int8_ns", ">=", 0.8},
	{"shrink(quant vs float dart storage_bytes)", "BenchmarkDartInfer@storage_bytes", "BenchmarkDartInferQuant@storage_bytes", ">=", 4},
	{"allocs(quant vs float dart infer)", "BenchmarkDartInferQuant@allocs", "BenchmarkDartInfer@allocs", "<=", 1},

	// The binary protocol's reason to exist, and the router hop's cost
	// contract: decode, journal, re-encode and one more hop stay a constant
	// factor over a direct backend call through the same loopback wire.
	{"speedup(binary vs json wire access)", "BenchmarkWireAccessJSON", "BenchmarkWireAccessBinary", ">=", 5},
	{"overhead(routed vs direct access)", "BenchmarkRouterAccess", "BenchmarkDirectAccess", "<=", 3},
}

// resolve replaces "{n}" in the row's keys with the largest n at which got
// holds both. With no such n the row is returned unchanged, so its keys read
// as missing.
func (r row) resolve(got map[string]float64) row {
	prefix, suffix, ok := strings.Cut(r.num, "{n}")
	if !ok {
		return r
	}
	best := -1
	for key := range got {
		if !strings.HasPrefix(key, prefix) || !strings.HasSuffix(key, suffix) || len(key) < len(prefix)+len(suffix) {
			continue
		}
		n, err := strconv.Atoi(key[len(prefix) : len(key)-len(suffix)])
		if _, both := got[strings.ReplaceAll(r.den, "{n}", strconv.Itoa(n))]; err == nil && both && n > best {
			best = n
		}
	}
	if best < 0 {
		return r
	}
	at := strconv.Itoa(best)
	r.name = strings.ReplaceAll(r.name, "{n}", at)
	r.num = strings.ReplaceAll(r.num, "{n}", at)
	r.den = strings.ReplaceAll(r.den, "{n}", at)
	return r
}

// pass reports whether num/den meets the bar; den is 1 for zero-allocs rows.
// Ratios are compared cross-multiplied so a zero denominator (0 allocs on
// both sides) is well defined.
func (r row) pass(num, den float64) bool {
	switch r.op {
	case ">=":
		return num >= r.bar*den
	case ">":
		return num > r.bar*den
	case "<=":
		return num <= r.bar*den
	}
	return num == r.bar*den
}

// benchLine matches e.g. "BenchmarkMatMul/par/n512/w4-8   100  11093275 ns/op".
// The -N GOMAXPROCS suffix is optional: go test omits it when GOMAXPROCS=1.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// metric matches one "<value> <unit>" column after ns/op: -benchmem's B/op
// and allocs/op, and every metric a benchmark reports (b.ReportMetric). The
// value lands in the parse map under "<name>@<unit>", a "/op" suffix dropped:
// "<name>@allocs", "<name>@storage_bytes".
var metric = regexp.MustCompile(`([0-9.]+) (\S+)`)

// parseBench extracts name -> ns/op, plus "<name>@<unit>" for the metric
// columns, from go test -bench output. Repeated names (e.g. from -count)
// keep the minimum of each, the standard noise filter.
func parseBench(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %w", sc.Text(), err)
		}
		keepMin(out, m[1], ns)
		_, cols, _ := strings.Cut(sc.Text(), " ns/op")
		for _, mm := range metric.FindAllStringSubmatch(cols, -1) {
			v, err := strconv.ParseFloat(mm[1], 64)
			if err != nil {
				return nil, fmt.Errorf("bad %s in %q: %w", mm[2], sc.Text(), err)
			}
			keepMin(out, m[1]+"@"+strings.TrimSuffix(mm[2], "/op"), v)
		}
	}
	return out, sc.Err()
}

// keepMin records v under key unless a smaller value is already there.
func keepMin(out map[string]float64, key string, v float64) {
	if prev, ok := out[key]; !ok || v < prev {
		out[key] = v
	}
}

// check evaluates every row against the parsed results, prints one line per
// row in table order, and returns the exit code.
func check(got map[string]float64, out io.Writer) int {
	failed := 0
	var missing []string
	for _, r := range rows {
		r = r.resolve(got)
		num, hasNum := got[r.num]
		den, hasDen := 1.0, true
		if r.den != "" {
			den, hasDen = got[r.den]
		}
		if !hasNum {
			missing = append(missing, r.num)
		}
		if !hasDen {
			missing = append(missing, r.den)
		}
		if !hasNum || !hasDen {
			fmt.Fprintf(out, "MISS %s\n", r.name)
			continue
		}
		status := "ok  "
		if !r.pass(num, den) {
			status = "FAIL"
			failed++
		}
		fmt.Fprintf(out, "%s %-44s measured %10.4g  want %s %g\n", status, r.name, num/den, r.op, r.bar)
	}
	switch {
	case len(missing) > 0:
		fmt.Fprintf(out, "benchcheck: input is missing %s (fail closed: every row must be measured)\n", strings.Join(missing, ", "))
		return 2
	case failed > 0:
		fmt.Fprintf(out, "benchcheck: %d of %d rows failed\n", failed, len(rows))
		return 1
	}
	fmt.Fprintf(out, "benchcheck: all %d rows passed\n", len(rows))
	return 0
}

// run parses bench output from in and gates it.
func run(in io.Reader, out io.Writer) int {
	got, err := parseBench(in)
	if err != nil {
		fmt.Fprintf(out, "benchcheck: %v\n", err)
		return 2
	}
	if len(got) == 0 {
		fmt.Fprintln(out, "benchcheck: no benchmark results in input")
		return 2
	}
	return check(got, out)
}

// runArgs reads the bench output from the one positional path, or from
// stdin when there is none.
func runArgs(args []string, stdin io.Reader, out io.Writer) int {
	switch len(args) {
	case 0:
		return run(stdin, out)
	case 1:
		f, err := os.Open(args[0])
		if err != nil {
			fmt.Fprintf(out, "benchcheck: %v\n", err)
			return 2
		}
		defer f.Close()
		return run(f, out)
	}
	fmt.Fprintln(out, "usage: dart-benchcheck [bench-output-file]")
	return 2
}

func main() {
	os.Exit(runArgs(os.Args[1:], os.Stdin, os.Stdout))
}
