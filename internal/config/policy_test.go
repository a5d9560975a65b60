package config

import (
	"strings"
	"testing"

	"dart/internal/nn"
	"dart/internal/tabular"
)

// fullPolicySpec sets every key of the -policy-spec syntax, with stray
// whitespace and empty fields.
const fullPolicySpec = "admit=0.8, window=4 ,diverge=0.6,windows=2,live=128,delta=0.05,log=64," +
	"student-latency=40,student-storage=16384,dart-latency=100,dart-storage=65536," +
	"kernel=lsh,k=8,c=1,,"

// TestParsePolicySpecRoundTrip: every key of the -policy-spec syntax lands in
// its field, with whitespace and empty fields tolerated.
func TestParsePolicySpecRoundTrip(t *testing.T) {
	spec, err := ParsePolicySpec(fullPolicySpec)
	if err != nil {
		t.Fatal(err)
	}
	want := PolicySpec{
		AdmitThreshold: 0.8, AdmitWindow: 4,
		DivergeThreshold: 0.6, DivergeWindows: 2,
		LiveWindow: 128, MinSourceDelta: 0.05, LogCap: 64,
		StudentLatency: 40, StudentStorage: 16384,
		DartLatency: 100, DartStorage: 65536,
		Kernel: "lsh", K: 8, C: 1,
	}
	if spec != want {
		t.Fatalf("parsed %+v, want %+v", spec, want)
	}
	if !spec.HasStudentBudget() || !spec.HasDartBudget() {
		t.Fatal("budget predicates miss a fully budgeted spec")
	}
}

// TestParsePolicySpecEmpty: the empty spec is valid and all-defaults.
func TestParsePolicySpecEmpty(t *testing.T) {
	for _, s := range []string{"", "   "} {
		spec, err := ParsePolicySpec(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if spec != (PolicySpec{}) {
			t.Fatalf("%q parsed to %+v", s, spec)
		}
		if spec.HasStudentBudget() || spec.HasDartBudget() {
			t.Fatal("empty spec claims a budget")
		}
	}
}

// TestParsePolicySpecErrors pins the rejection surface: unknown keys, bad
// values, fields without '=', out-of-domain thresholds, half-given budget
// pairs, and unknown kernels.
func TestParsePolicySpecErrors(t *testing.T) {
	for _, c := range badPolicySpecs {
		_, err := ParsePolicySpec(c.in)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParsePolicySpec(%q) = %v, want error containing %q", c.in, err, c.want)
		}
	}
}

// badPolicySpecs are specs ParsePolicySpec rejects, each with a substring of
// its error.
var badPolicySpecs = []struct {
	in   string
	want string
}{
	{"bogus=1", "unknown policy spec key"},
	{"admit", "not key=value"},
	{"admit=high", "policy spec admit="},
	{"window=2.5", "policy spec window="},
	{"admit=1.5", "outside [0, 1]"},
	{"diverge=-0.1", "outside [0, 1]"},
	{"delta=-1", "must be >= 0"},
	{"window=-1", "must be >= 0"},
	{"kernel=quantum", "kernel="},
	{"student-latency=40", "both student-latency and student-storage"},
	{"dart-storage=1024", "both dart-latency and dart-storage"},
}

// TestConfigureStudentBudgeted: a dart budget drives the configurator to a
// candidate within the constraints, and pinned K/C filter the space.
func TestConfigureStudentBudgeted(t *testing.T) {
	spec := PolicySpec{DartLatency: 200, DartStorage: 1 << 20, K: 16, C: 1}
	cand, err := spec.ConfigureStudent(8, 12, 10)
	if err != nil {
		t.Fatal(err)
	}
	if cand.Latency > spec.DartLatency || cand.StorageBytes > spec.DartStorage {
		t.Fatalf("candidate (%d cycles, %d bytes) violates the budget (%d, %d)",
			cand.Latency, cand.StorageBytes, spec.DartLatency, spec.DartStorage)
	}
	if cand.Table.K != 16 || cand.Table.C != 1 {
		t.Fatalf("pinned kernel ignored: got K=%d C=%d", cand.Table.K, cand.Table.C)
	}
	if cand.Model.T != 8 || cand.Model.DI != 12 || cand.Model.DO != 10 {
		t.Fatalf("candidate model has the wrong shape: %+v", cand.Model)
	}
}

// TestConfigureStudentFallsBackToStudentBudget: with no dart budget the
// student budget constrains the search instead.
func TestConfigureStudentFallsBackToStudentBudget(t *testing.T) {
	spec := PolicySpec{StudentLatency: 500, StudentStorage: 1 << 22}
	cand, err := spec.ConfigureStudent(8, 12, 10)
	if err != nil {
		t.Fatal(err)
	}
	if cand.Latency > spec.StudentLatency || cand.StorageBytes > spec.StudentStorage {
		t.Fatalf("candidate (%d cycles, %d bytes) violates the student budget",
			cand.Latency, cand.StorageBytes)
	}
}

// TestConfigureStudentInfeasible: an unsatisfiable budget (or a pinned
// kernel that empties the space) is a clean error, not a zero candidate.
func TestConfigureStudentInfeasible(t *testing.T) {
	if _, err := (PolicySpec{DartLatency: 1, DartStorage: 1}).ConfigureStudent(8, 12, 10); err == nil {
		t.Fatal("1-cycle 1-byte budget produced a candidate")
	}
	spec := PolicySpec{DartLatency: 200, DartStorage: 1 << 20, K: 7} // K=7 is not in the space
	if _, err := spec.ConfigureStudent(8, 12, 10); err == nil {
		t.Fatal("pinning K to a value outside the design space produced a candidate")
	}
}

// servingTeacher is the teacher architecture the Serving tests derive from.
var servingTeacher = nn.TransformerConfig{T: 8, DIn: 12, DModel: 32, DFF: 64, DOut: 10, Heads: 2, Layers: 1}

// TestServing pins the serving derivation: the student is the halving or
// the budgeted candidate's model, and the kernel is base, then the
// candidate's table, then the spec's kernel/k/c/bits.
func TestServing(t *testing.T) {
	base := tabular.Config{
		Kernel:   tabular.KernelConfig{K: 16, C: 2, Kind: tabular.EncoderLSH, DataBits: 64},
		FineTune: true,
		Seed:     9,
	}
	budget := PolicySpec{DartLatency: 200, DartStorage: 1 << 20}
	cand, err := budget.ConfigureStudent(servingTeacher.T, servingTeacher.DIn, servingTeacher.DOut)
	if err != nil {
		t.Fatal(err)
	}
	candTab := base
	candTab.Kernel.K, candTab.Kernel.C, candTab.Kernel.DataBits = cand.Table.K, cand.Table.C, cand.Table.DataBits
	overridden := budget
	overridden.Kernel, overridden.K, overridden.C, overridden.Bits = "linear", 16, 1, 8
	// The pinned K/C narrow the search, so the overridden spec's candidate
	// is its own.
	pinned, err := overridden.ConfigureStudent(servingTeacher.T, servingTeacher.DIn, servingTeacher.DOut)
	if err != nil {
		t.Fatal(err)
	}
	pinnedTab := base
	pinnedTab.Kernel = tabular.KernelConfig{K: 16, C: 1, Kind: tabular.EncoderKMeans, DataBits: 8}
	studentBudget := PolicySpec{StudentLatency: 500, StudentStorage: 1 << 22}
	sCand, err := studentBudget.ConfigureStudent(servingTeacher.T, servingTeacher.DIn, servingTeacher.DOut)
	if err != nil {
		t.Fatal(err)
	}
	sTab := base
	sTab.Kernel.K, sTab.Kernel.C, sTab.Kernel.DataBits = sCand.Table.K, sCand.Table.C, sCand.Table.DataBits
	noBudgetTab := base
	noBudgetTab.Kernel.K, noBudgetTab.Kernel.DataBits = 64, 16

	for _, tc := range []struct {
		name    string
		spec    PolicySpec
		student nn.TransformerConfig
		tab     tabular.Config
	}{
		{"empty", PolicySpec{}, nn.StudentConfig(servingTeacher), base},
		{"dart-budget", budget, cand.Model.Transformer(), candTab},
		{"student-budget", studentBudget, sCand.Model.Transformer(), sTab},
		{"overrides", overridden, pinned.Model.Transformer(), pinnedTab},
		{"unbudgeted-overrides", PolicySpec{K: 64, Bits: 16}, nn.StudentConfig(servingTeacher), noBudgetTab},
	} {
		t.Run(tc.name, func(t *testing.T) {
			student, tab, err := tc.spec.Serving(servingTeacher, base)
			if err != nil {
				t.Fatal(err)
			}
			if student != tc.student {
				t.Errorf("student %+v, want %+v", student, tc.student)
			}
			if tab != tc.tab {
				t.Errorf("kernel %+v, want %+v", tab, tc.tab)
			}
		})
	}
	if _, _, err := (PolicySpec{Kernel: "quantum"}).Serving(servingTeacher, base); err == nil {
		t.Error("unknown kernel did not error")
	}
	if _, _, err := (PolicySpec{DartLatency: 1, DartStorage: 1}).Serving(servingTeacher, base); err == nil {
		t.Error("infeasible budget did not error")
	}
}

// TestModelConfigRoundTrip: ModelOf and Transformer invert each other.
func TestModelConfigRoundTrip(t *testing.T) {
	m := ModelOf(servingTeacher)
	if want := (ModelConfig{T: 8, DI: 12, DA: 32, DF: 64, DO: 10, H: 2, L: 1}); m != want {
		t.Fatalf("ModelOf = %+v, want %+v", m, want)
	}
	if got := m.Transformer(); got != servingTeacher {
		t.Fatalf("Transformer = %+v, want %+v", got, servingTeacher)
	}
}
