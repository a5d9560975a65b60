// Configurator example: sweeps prefetcher design constraints through the
// table configurator (Sec. VI-C), reproducing the structure of Table VIII —
// tighter constraints yield smaller, faster table hierarchies (DART-S),
// looser ones yield larger, more accurate ones (DART-L).
package main

import (
	"fmt"

	"dart/internal/config"
	"dart/internal/dataprep"
)

func main() {
	dp := dataprep.Default()
	space := config.DefaultSpace(dp.History, dp.InputDim(), dp.OutputDim(), 64)
	fmt.Printf("design space: %d candidates\n\n", len(space))
	fmt.Printf("%-10s %12s %12s | %-22s %10s %12s %8s\n",
		"Variant", "τ (cycles)", "s (bytes)", "Config (L,D,H,K,C)", "Lat", "Storage", "Ops")
	for _, row := range []struct {
		name    string
		tau     int
		storage int
	}{
		{"DART-S", 60, 30 << 10},
		{"DART", 100, 1 << 20},
		{"DART-L", 200, 4 << 20},
	} {
		cand, err := config.Configure(config.Constraints{
			LatencyCycles: row.tau, StorageBytes: row.storage,
		}, space)
		if err != nil {
			fmt.Printf("%-10s %12d %12d | infeasible: %v\n", row.name, row.tau, row.storage, err)
			continue
		}
		m, t := cand.Model, cand.Table
		fmt.Printf("%-10s %12d %12d | (%d,%2d,%d,%4d,%d) %13d %11.1fK %8d\n",
			row.name, row.tau, row.storage,
			m.L, m.DA, m.H, t.K, t.C,
			cand.Latency, float64(cand.StorageBytes)/1024, cand.Ops)
	}
}
