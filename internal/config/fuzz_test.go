package config

import (
	"testing"

	"dart/internal/tabular"
)

// FuzzParsePolicySpec throws arbitrary strings at the -policy-spec grammar.
// The parser must never panic, every spec it accepts must pass Validate, and
// Serving on an accepted spec must either error or derive a student
// transformer that passes its own Validate. The seeds replay as an ordinary
// test; `make fuzz` digs for more.
func FuzzParsePolicySpec(f *testing.F) {
	f.Add(fullPolicySpec)
	f.Add("")
	f.Add("dart-latency=200,dart-storage=1048576,kernel=linear,k=16,c=1,bits=8")
	for _, bad := range badPolicySpecs {
		f.Add(bad.in)
	}
	base := tabular.Config{Kernel: tabular.KernelConfig{K: 16, C: 2, Kind: tabular.EncoderLSH}}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParsePolicySpec(s)
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("spec %q accepted but fails Validate: %v", s, err)
		}
		student, _, err := spec.Serving(servingTeacher, base)
		if err != nil {
			return
		}
		if err := student.Validate(); err != nil {
			t.Fatalf("spec %q derived an invalid student: %v", s, err)
		}
	})
}
