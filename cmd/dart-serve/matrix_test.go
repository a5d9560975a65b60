package main

import (
	"fmt"
	"path/filepath"
	"testing"
)

// TestRunMatrixEndToEnd drives the CLI matrix path against a classical-class
// matrix (no learner needed) over binary framing: report printed,
// completeness enforced, JSON written with per-tenant rows.
func TestRunMatrixEndToEnd(t *testing.T) {
	out := filepath.Join(t.TempDir(), "matrix.json")
	if err := run([]string{"-matrix", "-proto", "binary", "-batch", "16", "-json", out, "-matrix-spec",
		"a:workload=chase,sessions=2,n=400,class=stride;b:workload=phase,n=400,class=bo,cache=twolevel"}); err != nil {
		t.Fatal(err)
	}
	rep := readReport(t, out)
	if !rep.Complete || len(rep.Tenants) != 2 {
		t.Fatalf("bad matrix report: %+v", rep)
	}
	if rep.Merged.Accesses != 2*400+400 {
		t.Fatalf("report accounts %d accesses, want %d", rep.Merged.Accesses, 1200)
	}
}

// TestRunMatrixHonoursVerify: -verify reaches -matrix, so a deterministic
// tenant is re-run offline and marked bit-identical — and -verify=false
// turns the check off.
func TestRunMatrixHonoursVerify(t *testing.T) {
	for _, verify := range []bool{true, false} {
		out := filepath.Join(t.TempDir(), "matrix.json")
		if err := run([]string{"-matrix", fmt.Sprintf("-verify=%v", verify),
			"-matrix-spec", "batch:workload=milc,n=300,class=stride", "-json", out}); err != nil {
			t.Fatal(err)
		}
		if got := readReport(t, out).Tenants[0].Verified; got != verify {
			t.Fatalf("-verify=%v: stride tenant Verified=%v", verify, got)
		}
	}
}
