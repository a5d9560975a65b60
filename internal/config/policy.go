package config

import (
	"fmt"
	"strconv"
	"strings"

	"dart/internal/nn"
	"dart/internal/tabular"
)

// PolicySpec is the operator-facing schema of the promotion policy engine:
// the admission/divergence thresholds, the per-class latency/storage budgets
// checked against modelled per-class costs at admission, and the serving
// tiers' shape. dart-serve and dart-train parse it from -policy-spec;
// dart-serve maps the thresholds and budgets onto online.PolicyConfig, and
// both derive the student architecture and the dart kernel through Serving,
// so this package owns the schema without importing online.
//
// All fields are optional: zero values defer to the engine's defaults (and,
// for the budgets, leave the class unbudgeted and the student at
// nn.StudentConfig's halving of the teacher).
type PolicySpec struct {
	AdmitThreshold   float64 // admit=   minimum candidate-vs-source agreement (0, 1]
	AdmitWindow      int     // window=  shadow batches per admission window
	DivergeThreshold float64 // diverge= live agreement below which a window is divergent
	DivergeWindows   int     // windows= consecutive divergent windows before rollback
	LiveWindow       int     // live=    shadow-compared labels per live window
	MinSourceDelta   float64 // delta=   min relative student param delta to re-tabularize
	LogCap           int     // log=     decision-log capacity

	// Per-class budgets. A non-zero student budget pair replaces the fixed
	// nn.StudentConfig halving with a Configure search under these
	// constraints; a non-zero dart budget pair constrains table admission
	// and (with Kernel/K/C unset) the configured kernel. See Serving.
	StudentLatency int // student-latency= cycles
	StudentStorage int // student-storage= bytes
	DartLatency    int // dart-latency=    cycles
	DartStorage    int // dart-storage=    bytes

	// Serving tabularization kernel; empty/zero defer to the configurator's
	// choice (or the daemon default when no dart budget is given).
	Kernel string // kernel=  "lsh" (hashing encoder) or "linear" (exact nearest-prototype)
	K      int    // k=       prototypes per subspace
	C      int    // c=       subspaces
	Bits   int    // bits=    stored table entry width: 8/16 quantized, 64 float (default)
}

// ParsePolicySpec parses the comma-separated key=value -policy-spec syntax,
// e.g. "admit=0.8,window=4,diverge=0.6,windows=2,kernel=lsh,k=8,c=1,
// student-latency=40,student-storage=16384". An empty string is a valid,
// all-defaults spec.
func ParsePolicySpec(s string) (PolicySpec, error) {
	var spec PolicySpec
	if strings.TrimSpace(s) == "" {
		return spec, nil
	}
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return spec, fmt.Errorf("config: policy spec field %q is not key=value", field)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "admit":
			spec.AdmitThreshold, err = strconv.ParseFloat(val, 64)
		case "window":
			spec.AdmitWindow, err = strconv.Atoi(val)
		case "diverge":
			spec.DivergeThreshold, err = strconv.ParseFloat(val, 64)
		case "windows":
			spec.DivergeWindows, err = strconv.Atoi(val)
		case "live":
			spec.LiveWindow, err = strconv.Atoi(val)
		case "delta":
			spec.MinSourceDelta, err = strconv.ParseFloat(val, 64)
		case "log":
			spec.LogCap, err = strconv.Atoi(val)
		case "student-latency":
			spec.StudentLatency, err = strconv.Atoi(val)
		case "student-storage":
			spec.StudentStorage, err = strconv.Atoi(val)
		case "dart-latency":
			spec.DartLatency, err = strconv.Atoi(val)
		case "dart-storage":
			spec.DartStorage, err = strconv.Atoi(val)
		case "kernel":
			spec.Kernel = val
		case "k":
			spec.K, err = strconv.Atoi(val)
		case "c":
			spec.C, err = strconv.Atoi(val)
		case "bits":
			spec.Bits, err = strconv.Atoi(val)
		default:
			return spec, fmt.Errorf("config: unknown policy spec key %q", key)
		}
		if err != nil {
			return spec, fmt.Errorf("config: policy spec %s=%q: %v", key, val, err)
		}
	}
	return spec, spec.Validate()
}

// Validate rejects values outside their domains. Zero values are always
// valid (they defer to defaults).
func (s PolicySpec) Validate() error {
	if s.AdmitThreshold < 0 || s.AdmitThreshold > 1 {
		return fmt.Errorf("config: policy admit=%v outside [0, 1]", s.AdmitThreshold)
	}
	if s.DivergeThreshold < 0 || s.DivergeThreshold > 1 {
		return fmt.Errorf("config: policy diverge=%v outside [0, 1]", s.DivergeThreshold)
	}
	if s.MinSourceDelta < 0 {
		return fmt.Errorf("config: policy delta=%v must be >= 0", s.MinSourceDelta)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"window", s.AdmitWindow}, {"windows", s.DivergeWindows},
		{"live", s.LiveWindow}, {"log", s.LogCap},
		{"student-latency", s.StudentLatency}, {"student-storage", s.StudentStorage},
		{"dart-latency", s.DartLatency}, {"dart-storage", s.DartStorage},
		{"k", s.K}, {"c", s.C},
	} {
		if f.v < 0 {
			return fmt.Errorf("config: policy %s=%d must be >= 0", f.name, f.v)
		}
	}
	switch s.Kernel {
	case "", "lsh", "linear", "kmeans":
	default:
		return fmt.Errorf("config: policy kernel=%q (want lsh or linear)", s.Kernel)
	}
	switch s.Bits {
	case 0, 8, 16, 64:
	default:
		return fmt.Errorf("config: policy bits=%d (want 8, 16, or 64)", s.Bits)
	}
	if (s.StudentLatency > 0) != (s.StudentStorage > 0) {
		return fmt.Errorf("config: student budget needs both student-latency and student-storage")
	}
	if (s.DartLatency > 0) != (s.DartStorage > 0) {
		return fmt.Errorf("config: dart budget needs both dart-latency and dart-storage")
	}
	return nil
}

// HasStudentBudget reports whether the spec budgets the student class (and
// therefore drives the configurator's architecture choice).
func (s PolicySpec) HasStudentBudget() bool { return s.StudentLatency > 0 && s.StudentStorage > 0 }

// HasDartBudget reports whether the spec budgets the dart class.
func (s PolicySpec) HasDartBudget() bool { return s.DartLatency > 0 && s.DartStorage > 0 }

// ConfigureStudent runs the configurator's latency-major search over the
// default design space under the spec's dart budget (the table is the
// deployment artifact the budget describes; the transformer it selects is
// the student architecture), for the given history length and input/output
// dimensions. When the spec pins K/C, the space is filtered to them first.
func (s PolicySpec) ConfigureStudent(t, di, do int) (Candidate, error) {
	cons := Constraints{LatencyCycles: s.DartLatency, StorageBytes: s.DartStorage}
	if !s.HasDartBudget() {
		cons = Constraints{LatencyCycles: s.StudentLatency, StorageBytes: s.StudentStorage}
	}
	bits := s.Bits
	if bits == 0 {
		bits = 64
	}
	space := DefaultSpaceBits(t, di, do, bits)
	if s.K > 0 || s.C > 0 {
		var narrowed []Candidate
		for _, c := range space {
			if (s.K > 0 && c.Table.K != s.K) || (s.C > 0 && c.Table.C != s.C) {
				continue
			}
			narrowed = append(narrowed, c)
		}
		space = narrowed
	}
	return Configure(cons, space)
}

// Serving derives the serving tiers the spec selects for a teacher
// architecture. The student is nn.StudentConfig's halving of teacher or,
// under a student or dart budget, the model of ConfigureStudent's candidate
// at the teacher's T, DIn and DOut. The tabularization config is base, then
// the candidate's table shape, then the spec's kernel, k, c and bits.
// dart-serve and dart-train both derive their tiers here, so a checkpoint
// dart-train publishes restores into the daemon's identically-shaped tiers.
func (s PolicySpec) Serving(teacher nn.TransformerConfig, base tabular.Config) (nn.TransformerConfig, tabular.Config, error) {
	student, tab := nn.StudentConfig(teacher), base
	if s.HasStudentBudget() || s.HasDartBudget() {
		cand, err := s.ConfigureStudent(teacher.T, teacher.DIn, teacher.DOut)
		if err != nil {
			return nn.TransformerConfig{}, tabular.Config{}, err
		}
		student = cand.Model.Transformer()
		tab.Kernel.K, tab.Kernel.C, tab.Kernel.DataBits = cand.Table.K, cand.Table.C, cand.Table.DataBits
	}
	if s.Kernel != "" {
		kind, err := tabular.ParseEncoderKind(s.Kernel)
		if err != nil {
			return nn.TransformerConfig{}, tabular.Config{}, err
		}
		tab.Kernel.Kind = kind
	}
	if s.K > 0 {
		tab.Kernel.K = s.K
	}
	if s.C > 0 {
		tab.Kernel.C = s.C
	}
	if s.Bits > 0 {
		tab.Kernel.DataBits = s.Bits
	}
	return student, tab, nil
}
