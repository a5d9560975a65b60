package main

import (
	"fmt"
	"time"

	"dart/internal/serve"
)

// runMatrix replays a scenario matrix through the spec's target — in-process
// or over a wire protocol — prints the report, and enforces per-tenant
// completeness. With soak > 0 it repeats rounds until the deadline passes,
// perturbing every tenant's trace seed each round.
func runMatrix(base serve.ReplaySpec, spec string, soak time.Duration, jsonOut string) {
	if spec == "" {
		spec = serve.DefaultMatrixSpec
	}
	tenants, err := serve.ParseMatrixSpec(spec)
	if err != nil {
		fatalf("matrix: %v", err)
	}
	deadline := time.Now().Add(soak)
	var rep serve.MatrixReport
	for round := 0; ; round++ {
		rt := make([]serve.TenantSpec, len(tenants))
		copy(rt, tenants)
		for i := range rt {
			rt[i].Seed += int64(1000 * round)
		}
		base.Tenants = rt
		rep, err = serve.ReplayMatrix(base)
		if err != nil {
			fatalf("matrix: %v", err)
		}
		fmt.Print(rep)
		if !rep.Complete {
			fatalf("COMPLETENESS FAILED: a tenant dropped or reordered accesses")
		}
		if base.Verify && !rep.Verified {
			fatalf("VERIFY FAILED: a checkable tenant is not bit-identical to the offline simulator")
		}
		if soak <= 0 || time.Now().After(deadline) {
			break
		}
	}
	fmt.Printf("matrix complete: every tenant delivered every access in order\n")
	if jsonOut != "" {
		writeReport(jsonOut, rep)
	}
}
