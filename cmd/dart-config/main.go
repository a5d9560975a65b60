// Command dart-config runs the table configurator (paper Sec. VI-C): given
// prefetcher design constraints τ (latency, cycles) and s (storage, bytes),
// it prints the selected model/table configuration and the analytic cost of
// the tables tabular.Tabularize builds for it (tabular.ModelCost),
// reproducing the rows of Table VIII. The defaults are
// config.DefaultConstraints, the budget dart-train and dart-serve -pretrain
// build under.
//
// Usage:
//
//	dart-config [-tau cycles] [-storage bytes] [-history T] [-dout bits]
package main

import (
	"flag"
	"fmt"
	"os"

	"dart/internal/config"
	"dart/internal/dataprep"
)

func main() {
	tau := flag.Int("tau", config.DefaultConstraints.LatencyCycles, "latency constraint τ in cycles")
	storage := flag.Int("storage", config.DefaultConstraints.StorageBytes, "storage constraint s in bytes")
	history := flag.Int("history", dataprep.Default().History, "input history length T")
	dout := flag.Int("dout", dataprep.Default().OutputDim(), "delta bitmap width D_O")
	flag.Parse()

	dp := dataprep.Default()
	space := config.DefaultSpace(*history, dp.InputDim(), *dout, 64)
	cand, err := config.Configure(config.Constraints{
		LatencyCycles: *tau, StorageBytes: *storage,
	}, space)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	m, t := cand.Model, cand.Table
	fmt.Printf("Constraints: τ=%d cycles, s=%d bytes\n", *tau, *storage)
	fmt.Printf("Configuration (L, D, H, K, C): (%d, %d, %d, %d, %d)\n", m.L, m.DA, m.H, t.K, t.C)
	fmt.Printf("Latency:  %d cycles\n", cand.Latency)
	fmt.Printf("Storage:  %d bytes (%.1f KB)\n", cand.StorageBytes, float64(cand.StorageBytes)/1024)
	fmt.Printf("Ops:      %d\n", cand.Ops)
	fmt.Printf("\nSource NN (systolic array) for the same structure:\n")
	fmt.Printf("Latency:  %d cycles\n", config.NNLatency(m))
	fmt.Printf("Storage:  %d bytes\n", config.NNStorageBits(m, 32)/8)
	fmt.Printf("Ops:      %d\n", config.NNOps(m))
}
