package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dart/internal/config"
	"dart/internal/dataprep"
	"dart/internal/loadgen"
	"dart/internal/nn"
	"dart/internal/online"
)

// classNames lists the serving classes a learner runs, in table order.
func classNames(l *online.Learner) string {
	var names []string
	for _, c := range l.Classes() {
		names = append(names, c.Name())
	}
	return strings.Join(names, " ")
}

// class returns the learner's named serving class.
func class(t *testing.T, l *online.Learner, name string) *online.Class {
	t.Helper()
	c, err := l.Class(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestBuildLearnerTiers pins the daemon's learner wiring: the flag
// combinations map onto the expected serving classes, and the dart tier
// rides on the student tier.
func TestBuildLearnerTiers(t *testing.T) {
	teacherOnly, err := buildLearner(nil, "", -1, false, -1, false, -1, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := classNames(teacherOnly); got != "teacher" {
		t.Fatalf("teacher-only learner runs classes %q", got)
	}

	dir := t.TempDir()
	full, err := buildLearner(nil, dir, -1, true, -1, true, -1, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := classNames(full); got != "teacher student dart" {
		t.Fatalf("dart learner runs classes %q", got)
	}
	if class(t, full, online.TeacherClass).Version() == 0 || class(t, full, online.StudentClass).Version() == 0 {
		t.Fatal("model classes not published at construction")
	}
	if class(t, full, online.DartClass).Version() != 0 {
		t.Fatal("a table served before any tabularization")
	}
	// The daemon's serving kernel is the configuration the CI bench gate
	// measures: LSH (power-of-two K) so tabularization cannot panic.
	k := online.DefaultTabularConfig().Kernel
	if k.K&(k.K-1) != 0 {
		t.Fatalf("serving kernel K=%d is not a power of two (LSH requires it)", k.K)
	}

	// A second learner over the same directory recovers both model classes.
	again, err := buildLearner(nil, dir, -1, true, -1, true, -1, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if class(t, again, online.TeacherClass).Version() != class(t, full, online.TeacherClass).Version() ||
		class(t, again, online.StudentClass).Version() != class(t, full, online.StudentClass).Version() {
		t.Fatal("restart did not recover the published classes")
	}
}

// TestBuildLearnerTeacherCost: without a pretrained model the online
// teacher is still charged the modelled cost of its architecture, so it
// stays dearer than the student distilled from it.
func TestBuildLearnerTeacherCost(t *testing.T) {
	l, err := buildLearner(nil, "", -1, true, -1, false, -1, false, "")
	if err != nil {
		t.Fatal(err)
	}
	data := dataprep.Default()
	m := config.ModelOf(nn.TransformerConfig{
		T: data.History, DIn: data.InputDim(),
		DModel: 32, DFF: 64, DOut: data.OutputDim(), Heads: 2, Layers: 1,
	})
	latency, storage := class(t, l, online.TeacherClass).Cost()
	if want, wantB := config.NNLatency(m), config.NNStorageBits(m, 32)/8; latency != want || storage != wantB {
		t.Fatalf("teacher charged %d cycles / %d B, want its model's %d cycles / %d B", latency, storage, want, wantB)
	}
	sLatency, sStorage := class(t, l, online.StudentClass).Cost()
	if latency <= sLatency || storage <= sStorage {
		t.Fatalf("teacher costs %d cycles / %d B, not above its student's %d cycles / %d B",
			latency, storage, sLatency, sStorage)
	}
}

// TestBuildLearnerPolicySpec pins the -policy-spec wiring: malformed specs
// fail before a learner exists, the gate flag hangs the policy engine off
// the learner (and only then), and a budgeted spec replaces the fixed
// halved-teacher student with the configurator's candidate under exactly
// those constraints.
func TestBuildLearnerPolicySpec(t *testing.T) {
	for _, spec := range []string{
		"admit=high",                    // unparsable value
		"kernel=quantum",                // unknown tabularization kernel
		"dart-latency=1,dart-storage=1", // infeasible budget: empty design space
	} {
		if _, err := buildLearner(nil, "", -1, true, -1, true, -1, true, spec); err == nil {
			t.Fatalf("spec %q did not error", spec)
		}
	}

	ungated, err := buildLearner(nil, "", -1, true, -1, true, -1, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if ungated.Policy() != nil {
		t.Fatal("policy engine present without -policy")
	}

	// Thresholds plus a kernel override: the learner builds with the gate
	// attached and the spec-driven table shape (exact linear encoder, K=8,
	// C=2) in place of the serving default.
	gated, err := buildLearner(nil, "", -1, true, -1, true, -1, true,
		"admit=0.7,window=3,kernel=linear,k=8,c=2")
	if err != nil {
		t.Fatal(err)
	}
	if gated.Policy() == nil {
		t.Fatal("-policy did not attach the policy engine")
	}
	if got := classNames(gated); got != "teacher student dart" {
		t.Fatalf("gated learner runs classes %q", got)
	}

	// A budgeted spec routes the student architecture through the
	// configurator; the learner's modelled costs must match the candidate
	// the same spec derives directly.
	const budget = "dart-latency=100000,dart-storage=1073741824"
	spec, err := config.ParsePolicySpec(budget)
	if err != nil {
		t.Fatal(err)
	}
	data := dataprep.Default()
	cand, err := spec.ConfigureStudent(data.History, data.InputDim(), data.OutputDim())
	if err != nil {
		t.Fatal(err)
	}
	budgeted, err := buildLearner(nil, "", -1, true, -1, true, -1, true, budget)
	if err != nil {
		t.Fatal(err)
	}
	latency, storage := class(t, budgeted, online.StudentClass).Cost()
	if want := config.NNLatency(cand.Model); latency != want {
		t.Fatalf("budgeted student latency %d, want configurator candidate %d", latency, want)
	}
	if want := config.NNStorageBits(cand.Model, 32) / 8; storage != want {
		t.Fatalf("budgeted student storage %d, want configurator candidate %d", storage, want)
	}
}

// TestPrintLearnerPolicyReport pins the log-scraping summary for a gated
// learner: the policy counter line and the trailing decision lines print
// from the real decision log.
func TestPrintLearnerPolicyReport(t *testing.T) {
	l, err := buildLearner(nil, "", -1, true, -1, true, -1, true, "admit=0.9,window=4")
	if err != nil {
		t.Fatal(err)
	}
	l.Start()
	defer l.Stop()
	// A forced teacher publish is the cheapest decision: no source class to
	// compare against, logged as an ungated admit.
	if _, err := l.Swap(); err != nil {
		t.Fatal(err)
	}

	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	printLearner(l)
	w.Close()
	os.Stdout = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "policy: admitted 1") {
		t.Fatalf("policy counters missing from learner summary:\n%s", out)
	}
	if !strings.Contains(string(out), "policy: #1 teacher admit v") {
		t.Fatalf("decision line missing from learner summary:\n%s", out)
	}
}

// readReport decodes the report of a -json file.
func readReport(t *testing.T, path string) loadgen.Report {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Report loadgen.Report `json:"report"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	return doc.Report
}

// TestRunReplayDartCompleteness drives the daemon's replay path end to end
// on the dart class: the versioned table hot-swaps under training by design,
// so -verify checks its sessions for completeness only, the report is
// written as JSON, and the learner summary prints without panicking.
func TestRunReplayDartCompleteness(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.json")
	if err := run([]string{"-replay", "-dart", "-prefetcher", "dart", "-sessions", "2", "-n", "500",
		"-swap-interval", "-1ns", "-distill-interval", "-1ns", "-tabularize-interval", "-1ns",
		"-json", out}); err != nil {
		t.Fatal(err)
	}
	rep := readReport(t, out)
	if rep.Merged.Accesses != 2*500 {
		t.Fatalf("report accounts %d accesses, want %d", rep.Merged.Accesses, 2*500)
	}
	if !rep.Verified || !rep.Sessions[0].Unchecked {
		t.Fatalf("dart sessions not marked unchecked under -verify: %+v", rep.Sessions)
	}
}

// TestOrNone covers the tiny flag formatter.
func TestOrNone(t *testing.T) {
	if orNone("") != "disabled" || orNone("/x") != "/x" {
		t.Fatal("orNone misformats")
	}
}

// TestRunReplaySoakRound: a short soak repeats rounds until the deadline and
// still accounts every access (fresh session ids per round).
func TestRunReplaySoakRound(t *testing.T) {
	if err := run([]string{"-replay", "-dart", "-prefetcher", "student", "-sessions", "2", "-n", "400",
		"-checkpoint-dir", t.TempDir(), "-swap-interval", "-1ns", "-distill-interval", "-1ns",
		"-tabularize-interval", "50ms", "-soak", "200ms"}); err != nil {
		t.Fatal(err)
	}
}

// TestWriteReportOverwrites: a replay writes {generated, command, host,
// report} to the -json path, and the next run replaces the file instead of
// merging into what is there.
func TestWriteReportOverwrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	if err := os.WriteFile(path, []byte(`{"binary":{"replay_throughput":1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"300", "200"} {
		if err := run([]string{"-replay", "-sessions", "2", "-n", n, "-json", path}); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		if len(doc) != 4 || doc["generated"] == nil || doc["command"] == nil || doc["host"] == nil {
			t.Fatalf("report keys after the n=%s run:\n%s", n, raw)
		}
		if rep := readReport(t, path); fmt.Sprint(rep.Merged.Accesses/2) != n {
			t.Fatalf("report accounts %d accesses, want 2x%s from the latest run", rep.Merged.Accesses, n)
		}
	}
}

// TestRunFlagErrors: bad flag combinations come back as errors, not exits.
func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{},          // no mode
		{"-matrix"}, // built-in matrix needs -dart
		{"-matrix", "-matrix-spec", "a:workload=nope"},
		{"-replay", "-n", "10", "-proto", "pigeon"},
		{"-pretrain", "-app", "no-such-app"},
		{"-online", "-policy-spec", "admit=high"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run %q succeeded", args)
		}
	}
}
