// Prefetching example: the Figs. 12-14 experiment on one workload. Trains
// DART, then simulates the trace under the baseline prefetchers and DART,
// printing accuracy / coverage / IPC improvement. The headline effect to look
// for: the ideal (zero-latency) NN prefetcher wins on raw accuracy, but once
// realistic inference latency is modelled the NN prefetcher collapses while
// DART keeps most of the benefit at rule-based-prefetcher latency.
package main

import (
	"fmt"
	"log"

	"dart/internal/config"
	"dart/internal/core"
	"dart/internal/kd"
	"dart/internal/prefetch"
	"dart/internal/sim"
	"dart/internal/trace"
)

func main() {
	spec, _ := trace.AppByName("410.bwaves")
	recs := trace.Generate(spec, 12000)

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
		log.Fatal(err)
	}

	const degree = 4
	cfg := sim.DefaultConfig()
	base := sim.Run(recs, sim.NoPrefetcher{}, cfg)
	fmt.Printf("workload %s: baseline IPC %.3f, %d LLC misses\n\n",
		spec.Name, base.IPC, base.DemandMisses)
	fmt.Printf("%-14s %9s %9s %9s %10s %10s\n",
		"Prefetcher", "Acc", "Cov", "IPCimp", "Lat(cyc)", "Storage")
	for _, pf := range []sim.Prefetcher{
		prefetch.NewBestOffset(degree),
		prefetch.NewISB(degree),
		prefetch.NewStride(degree),
		art.Prefetcher("DART", degree),
		art.StudentPrefetcher("TransFetch", degree, false),
		art.StudentPrefetcher("TransFetch-I", degree, true),
	} {
		res := sim.Run(recs, pf, cfg)
		fmt.Printf("%-14s %8.1f%% %8.1f%% %8.1f%% %10d %10d\n",
			pf.Name(), res.Accuracy()*100, sim.Coverage(base, res)*100,
			sim.IPCImprovement(base, res)*100, pf.Latency(), pf.StorageBytes())
	}
}
