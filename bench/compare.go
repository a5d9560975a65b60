package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// verdicts of one end-to-end metric on one workload, B against A.
const (
	verdictWithin     = "within bound"
	verdictImproved   = "improved"
	verdictRegressed  = "REGRESSED"
	verdictUnresolved = "unresolved"
	verdictReport     = "report only"
)

// comparison is one row of -compare: metric × workload.
type comparison struct {
	workload, metric string
	a, b             []float64 // one value per run, in run order
	better           string
	bound, abs       float64 // B may be worse by bound × A's median or by abs, whichever is larger

	ratio          float64 // median(b) / median(a)
	wins, pairs    int     // pairs B won, of pairs that did not tie
	spreadA        float64 // (q3-q1)/median of A's own runs
	spreadB        float64
	worseBy        float64 // share of A's median by which B's median is worse; negative when better
	everyRunBetter bool
	verdict        string
}

// judge applies the rules of the choosing-metrics guide (§6.5, §8): B regresses
// when its median is worse than A's by more than the bound; where either
// side's run-to-run spread exceeds the bound the row is unresolved rather than
// unchanged, unless every run of B reads better than every run of A or every
// pair of runs reads the same to the last digit; a gain is claimed only when B
// wins at least nine tenths of the pairs and the medians differ by more than
// A's own spread.
func (c *comparison) judge() {
	_, ma, _ := quartiles(c.a)
	_, mb, _ := quartiles(c.b)
	c.ratio = mb / ma
	c.spreadA, c.spreadB = spread(c.a), spread(c.b)
	bound := c.bound
	if ma != 0 {
		bound = max(bound, math.Abs(c.abs/ma))
	}
	sign := 1.0 // lower is better: worse means larger
	if c.better == "higher" {
		sign = -1
	}
	c.worseBy = sign * (mb - ma) / ma
	c.pairs, c.wins = 0, 0
	for i := 0; i < min(len(c.a), len(c.b)); i++ {
		if d := sign * (c.b[i] - c.a[i]); d != 0 {
			c.pairs++
			if d < 0 {
				c.wins++
			}
		}
	}
	c.everyRunBetter = true
	for _, a := range c.a {
		for _, b := range c.b {
			if sign*(b-a) >= 0 {
				c.everyRunBetter = false
			}
		}
	}
	switch {
	case c.everyRunBetter:
		c.verdict = verdictImproved
	case c.worseBy > bound:
		c.verdict = verdictRegressed
	case c.pairs == 0 && len(c.a) == len(c.b):
		c.verdict = verdictWithin
	case max(c.spreadA, c.spreadB) > bound:
		c.verdict = verdictUnresolved
	case c.pairs > 0 && c.wins*10 >= c.pairs*9 && -c.worseBy > c.spreadA:
		c.verdict = verdictImproved
	default:
		c.verdict = verdictWithin
	}
}

// readRuns loads an -out file: one result per line, grouped by workload.
func readRuns(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		runs[r.Workload] = append(runs[r.Workload], r)
	}
	return runs, sc.Err()
}

// valuesOf returns one metric's value in every run, in run order.
func valuesOf(runs []result, metric string) []float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = r.Metrics[metric].Value
	}
	return xs
}

// compareFiles prints one row per end-to-end metric × workload and reports
// whether B is free of regressions and of failed operations beyond A's.
func compareFiles(out io.Writer, pathA, pathB string) (bool, error) {
	runsA, err := readRuns(pathA)
	if err != nil {
		return false, err
	}
	runsB, err := readRuns(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(out, "A = %s, B = %s; ratio is median(B)/median(A); [q1 q3] as statistics.quantiles(n=4)\n", pathA, pathB)
	fmt.Fprintf(out, "%-16s %-22s %4s %12s %-25s %12s %-25s %7s %6s %7s %7s  %s\n",
		"workload", "metric", "runs", "A median", "A [q1 q3]", "B median", "B [q1 q3]", "ratio", "bound", "spread", "B wins", "verdict")
	for _, w := range workloads {
		a, b := runsA[w.name], runsB[w.name]
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		failedA, failedB := 0, 0
		for _, r := range a {
			failedA += r.Failed
		}
		for _, r := range b {
			failedB += r.Failed
		}
		if failedB > failedA {
			ok = false
			fmt.Fprintf(out, "%-16s ops_failed %d in B, %d in A: a gain does not count\n", w.name, failedB, failedA)
		}
		for _, d := range endToEnd {
			c := comparison{workload: w.name, metric: d.Name, better: d.Better, bound: d.boundOn(w), abs: d.abs,
				a: valuesOf(a, d.Name), b: valuesOf(b, d.Name)}
			c.judge()
			if d.report {
				c.verdict = verdictReport
			}
			if c.verdict == verdictRegressed {
				ok = false
			}
			a1, am, a3 := quartiles(c.a)
			b1, bm, b3 := quartiles(c.b)
			fmt.Fprintf(out, "%-16s %-22s %2d/%-2d %12.6g %-25s %12.6g %-25s %7.4f %6.2f %7.4f %4d/%-2d  %s\n",
				c.workload, c.metric, len(c.a), len(c.b),
				am, fmt.Sprintf("[%.6g %.6g]", a1, a3), bm, fmt.Sprintf("[%.6g %.6g]", b1, b3),
				c.ratio, c.bound, max(c.spreadA, c.spreadB), c.wins, c.pairs, c.verdict)
		}
	}
	return ok, nil
}
