// Quickstart: the smallest end-to-end DART run. Generates a synthetic LLC
// trace, runs the full pipeline (teacher → configurator → distillation →
// tabularization), and uses the resulting table hierarchy to predict future
// address deltas for one access history.
package main

import (
	"fmt"
	"log"

	"dart/internal/config"
	"dart/internal/core"
	"dart/internal/trace"
)

func main() {
	// 1. A workload: the streaming 462.libquantum stand-in.
	spec, _ := trace.AppByName("libquantum")
	recs := trace.Generate(spec, 8000)
	fmt.Printf("trace: %d accesses of %s\n", len(recs), spec.Name)

	// 2. The full pipeline under the default 82-cycle / 1.5-MiB design constraint.
	art, err := core.BuildDART(recs, core.Options{
		Constraints:   config.DefaultConstraints,
		TeacherEpochs: 5,
		FineTune:      true,
		Seed:          1,
	})
	if err != nil {
		log.Fatal(err)
	}
	m, t := art.Chosen.Model, art.Chosen.Table
	fmt.Printf("configured predictor: L=%d D=%d H=%d K=%d C=%d (%d cycles, %.0f KB)\n",
		m.L, m.DA, m.H, t.K, t.C, art.Chosen.Latency, float64(art.Chosen.StorageBytes)/1024)
	fmt.Printf("F1: teacher %.3f, student %.3f, DART tables %.3f\n",
		art.F1Teacher, art.F1Student, art.F1DART)

	// 3. Predict with the table hierarchy directly: take a test sample and
	// list the deltas whose logits are positive.
	x := art.Test.X.Sample(0)
	logits := art.Tables.Hierarchy.Query(x)
	fmt.Print("predicted deltas for the first test history: ")
	for bit, z := range logits.Row(0) {
		if z > 0 {
			fmt.Printf("%+d ", art.Opt.Data.BitToDelta(bit))
		}
	}
	fmt.Println()
}
