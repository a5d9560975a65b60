// Command dart-sim reproduces the prefetching evaluation of Figs. 12-14:
// for each benchmark it trains DART, then simulates the trace under every
// prefetcher (none, BO, ISB, DART, the NN student as a TransFetch-class
// prefetcher, and its zero-latency ideal variant) and prints prefetch
// accuracy, coverage, and IPC improvement.
//
// Usage:
//
//	dart-sim [-app mcf | -workload zipf | -all] [-n accesses] [-degree d]
//
// -workload accepts any workload-zoo scenario (chase, graph, zipf, phase, or
// a benchmark app name) and runs the same train-then-evaluate pipeline on its
// trace — the offline view of the adversarial generators.
package main

import (
	"flag"
	"fmt"
	"os"

	"dart/internal/config"
	"dart/internal/core"
	"dart/internal/kd"
	"dart/internal/prefetch"
	"dart/internal/sim"
	"dart/internal/trace"
)

func main() {
	app := flag.String("app", "462.libquantum", "application (suffix match)")
	workload := flag.String("workload", "", "workload-zoo scenario (chase|graph|zipf|phase or an app name); overrides -app")
	all := flag.Bool("all", false, "run every benchmark application")
	n := flag.Int("n", 12000, "trace accesses")
	degree := flag.Int("degree", 4, "prefetch degree")
	seed := flag.Int64("seed", 0, "workload seed perturbation")
	flag.Parse()

	type job struct {
		name string
		recs []trace.Record
	}
	var jobs []job
	switch {
	case *all:
		for _, spec := range trace.Apps() {
			jobs = append(jobs, job{spec.Name, trace.Generate(spec, *n)})
		}
	case *workload != "":
		w, ok := trace.WorkloadByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
			os.Exit(1)
		}
		jobs = append(jobs, job{w.Name, w.Generate(*seed, *n)})
	default:
		spec, ok := trace.AppByName(*app)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown application %q\n", *app)
			os.Exit(1)
		}
		spec.Seed += *seed
		jobs = append(jobs, job{spec.Name, trace.Generate(spec, *n)})
	}

	fmt.Printf("%-16s %-14s %9s %9s %9s %9s\n",
		"Application", "Prefetcher", "Acc", "Cov", "IPCimp", "Lat(cyc)")
	for _, j := range jobs {
		runApp(j.name, j.recs, *degree)
	}
}

func runApp(name string, recs []trace.Record, degree int) {
	kdc := kd.DefaultConfig()
	kdc.Epochs = 6
	art, err := core.BuildDART(recs, core.Options{
		Constraints:   config.DefaultConstraints,
		TeacherEpochs: 6,
		KD:            kdc,
		FineTune:      true,
		Seed:          1,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		return
	}
	cfg := sim.DefaultConfig()
	base := sim.Run(recs, sim.NoPrefetcher{}, cfg)
	pfs := []sim.Prefetcher{
		prefetch.NewBestOffset(degree),
		prefetch.NewISB(degree),
		art.Prefetcher("DART", degree),
		art.StudentPrefetcher("TransFetch", degree, false),
		art.StudentPrefetcher("TransFetch-I", degree, true),
	}
	for _, pf := range pfs {
		res := sim.Run(recs, pf, cfg)
		fmt.Printf("%-16s %-14s %8.1f%% %8.1f%% %8.1f%% %9d\n",
			name, pf.Name(),
			res.Accuracy()*100, sim.Coverage(base, res)*100,
			sim.IPCImprovement(base, res)*100, pf.Latency())
	}
}
