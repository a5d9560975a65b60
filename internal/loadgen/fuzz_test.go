package loadgen

import (
	"testing"

	"dart/internal/trace"
)

// FuzzParseMatrixSpec throws arbitrary strings at the -matrix-spec grammar.
// The parser must never panic, and every tenant it accepts must have a name
// and a workload the zoo can generate. The committed corpus under
// testdata/fuzz replays as an ordinary test; `make fuzz` digs for more.
func FuzzParseMatrixSpec(f *testing.F) {
	f.Add(DefaultMatrixSpec)
	f.Add(DefaultRouterMatrixSpec)
	for _, bad := range badMatrixSpecs {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		tenants, err := ParseMatrixSpec(spec)
		if err != nil {
			return
		}
		if len(tenants) == 0 {
			t.Fatalf("spec %q accepted with no tenants", spec)
		}
		for _, tn := range tenants {
			if tn.Name == "" {
				t.Fatalf("spec %q accepted an unnamed tenant", spec)
			}
			if _, ok := trace.WorkloadByName(tn.Workload); !ok || tn.Workload == "" {
				t.Fatalf("spec %q accepted tenant %q with workload %q", spec, tn.Name, tn.Workload)
			}
		}
	})
}
