package config

import (
	"math/rand"
	"testing"

	"dart/internal/mat"
	"dart/internal/nn"
	"dart/internal/tabular"
)

// dartModel is the paper's DART configuration (Table V): L=1, D=32, H=2.
func dartModel() ModelConfig {
	return ModelConfig{T: 8, DI: 10, DA: 32, DF: 128, DO: 64, H: 2, L: 1}
}

func TestEvaluateLatencyBallparkTableV(t *testing.T) {
	// Paper Table V: DART (K=128, C=2) latency 97 cycles. Our L_ln model
	// differs slightly from the (unstated) constant the authors used, so
	// accept ±15%.
	got := Evaluate(dartModel(), TableConfig{K: 128, C: 2}).Latency
	if got < 82 || got > 112 {
		t.Fatalf("DART latency %d outside 97±15%%", got)
	}
}

func TestTabularStorageBallparkTableV(t *testing.T) {
	// Paper Table V: DART storage 864.4 KB at the paper's nominal 32-bit
	// entry width. Our tables store float64, so the model prices the same
	// structure at double the entry bits: accept 2x 864.4 KB ±25% (the
	// non-entry terms — index bits, layer norms, denominators — keep the
	// ratio slightly under 2).
	bytes := Evaluate(dartModel(), TableConfig{K: 128, C: 2}).StorageBytes
	kb := float64(bytes) / 1024
	if kb < 1296 || kb > 2161 {
		t.Fatalf("DART float storage %.1f KB outside 1728±25%%", kb)
	}
	// Quantization must recover the deployable sizes: int8 at least 4x
	// below float (the entry payload is 8x smaller; metadata and the
	// float64 denominator/LN terms eat part of it), int16 in between.
	i8 := Evaluate(dartModel(), TableConfig{K: 128, C: 2, DataBits: 8}).StorageBytes
	i16 := Evaluate(dartModel(), TableConfig{K: 128, C: 2, DataBits: 16}).StorageBytes
	if float64(bytes)/float64(i8) < 4 {
		t.Fatalf("int8 model %d bytes not >=4x below float %d", i8, bytes)
	}
	if !(i8 < i16 && i16 < bytes) {
		t.Fatalf("width ordering violated: int8 %d, int16 %d, float %d", i8, i16, bytes)
	}
}

func TestEvaluateOpsOrderTableV(t *testing.T) {
	// Paper Table V: DART ops 11.0K; same order of magnitude required.
	ops := Evaluate(dartModel(), TableConfig{K: 128, C: 2}).Ops
	if ops < 3000 || ops > 40000 {
		t.Fatalf("DART ops %d not within order of 11K", ops)
	}
}

func TestNNComplexityTeacherVsStudent(t *testing.T) {
	teacher := ModelConfig{T: 8, DI: 10, DA: 256, DF: 1024, DO: 64, H: 8, L: 4}
	student := ModelConfig{T: 8, DI: 10, DA: 32, DF: 128, DO: 64, H: 2, L: 1}
	// Table V: teacher ~16.5K cycles vs student ~908; ratio ≈ 18x.
	lt, ls := NNLatency(teacher), NNLatency(student)
	if lt < 5*ls {
		t.Fatalf("teacher latency %d not ≫ student %d", lt, ls)
	}
	// Storage ratio ≈ 102x in the paper.
	st, ss := NNStorageBits(teacher, 32), NNStorageBits(student, 32)
	if st < 50*ss {
		t.Fatalf("teacher storage %d not ≫ student %d", st, ss)
	}
	// Ops ratio ≈ 730x in the paper (98.3M vs 134.7K).
	ot, os := NNOps(teacher), NNOps(student)
	if ot < 100*os {
		t.Fatalf("teacher ops %d not ≫ student %d", ot, os)
	}
}

func TestDARTReductionVersusStudent(t *testing.T) {
	// Table V headline: DART cuts student latency ~9.4x and ops ~91.8%.
	student := ModelConfig{T: 8, DI: 10, DA: 32, DF: 128, DO: 64, H: 2, L: 1}
	cand := Evaluate(student, TableConfig{K: 128, C: 2})
	nnLat := NNLatency(student)
	if ratio := float64(nnLat) / float64(cand.Latency); ratio < 4 {
		t.Fatalf("latency acceleration %.1fx < 4x", ratio)
	}
	nnOps := NNOps(student)
	if red := 1 - float64(cand.Ops)/float64(nnOps); red < 0.85 {
		t.Fatalf("ops reduction %.2f < 0.85", red)
	}
}

func TestConfigureRespectsConstraints(t *testing.T) {
	space := DefaultSpace(8, 10, 64, 64)
	for _, cons := range []Constraints{
		{LatencyCycles: 60, StorageBytes: 48 << 10},
		{LatencyCycles: 100, StorageBytes: 1 << 20},
		{LatencyCycles: 200, StorageBytes: 4 << 20},
	} {
		got, err := Configure(cons, space)
		if err != nil {
			t.Fatalf("constraints %+v: %v", cons, err)
		}
		if got.Latency > cons.LatencyCycles {
			t.Fatalf("latency %d exceeds τ=%d", got.Latency, cons.LatencyCycles)
		}
		if got.StorageBytes > cons.StorageBytes {
			t.Fatalf("storage %d exceeds s=%d", got.StorageBytes, cons.StorageBytes)
		}
	}
}

func TestConfigureLatencyMajor(t *testing.T) {
	// Hand-built space: the greedy must prefer the highest feasible latency,
	// then the largest feasible storage at that latency.
	space := []Candidate{
		{Latency: 90, StorageBytes: 100, Table: TableConfig{K: 1}},
		{Latency: 90, StorageBytes: 400, Table: TableConfig{K: 2}},
		{Latency: 90, StorageBytes: 9000, Table: TableConfig{K: 3}}, // over storage
		{Latency: 50, StorageBytes: 500, Table: TableConfig{K: 4}},
	}
	got, err := Configure(Constraints{LatencyCycles: 100, StorageBytes: 1000}, space)
	if err != nil {
		t.Fatal(err)
	}
	if got.Table.K != 2 {
		t.Fatalf("picked K=%d, want the 90-cycle/400-byte candidate", got.Table.K)
	}
}

func TestConfigureFallsBackToLowerLatency(t *testing.T) {
	space := []Candidate{
		{Latency: 90, StorageBytes: 9000, Table: TableConfig{K: 1}}, // storage infeasible
		{Latency: 50, StorageBytes: 500, Table: TableConfig{K: 2}},
	}
	got, err := Configure(Constraints{LatencyCycles: 100, StorageBytes: 1000}, space)
	if err != nil {
		t.Fatal(err)
	}
	if got.Table.K != 2 {
		t.Fatalf("fallback picked K=%d", got.Table.K)
	}
}

func TestQuantizedSpaceUnlocksTightBudgets(t *testing.T) {
	// The DART-S budget of 30 KB is infeasible under honest float64 table
	// pricing at tau=60 — it only ever looked feasible while the model
	// undercounted entry width. The int8 space satisfies it.
	cons := Constraints{LatencyCycles: 60, StorageBytes: 30 << 10}
	if _, err := Configure(cons, DefaultSpace(8, 10, 64, 64)); err == nil {
		t.Fatal("30 KB at tau=60 should be infeasible with float64 tables")
	}
	got, err := Configure(cons, DefaultSpace(8, 10, 64, 8))
	if err != nil {
		t.Fatalf("int8 space should satisfy the DART-S budget: %v", err)
	}
	if got.Table.DataBits != 8 || got.StorageBytes > cons.StorageBytes {
		t.Fatalf("int8 configure picked %+v", got)
	}
}

func TestConfigureInfeasible(t *testing.T) {
	if _, err := Configure(Constraints{LatencyCycles: 1, StorageBytes: 1}, DefaultSpace(8, 10, 64, 64)); err == nil {
		t.Fatal("expected infeasibility error")
	}
}

func TestTableVIIIConstraintsProduceGrowingConfigs(t *testing.T) {
	// Table VIII: looser constraints must yield higher-latency, larger
	// predictors (DART-S < DART < DART-L).
	space := DefaultSpace(8, 10, 64, 64)
	s, err := Configure(Constraints{LatencyCycles: 60, StorageBytes: 48 << 10}, space)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Configure(Constraints{LatencyCycles: 100, StorageBytes: 1 << 20}, space)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Configure(Constraints{LatencyCycles: 200, StorageBytes: 4 << 20}, space)
	if err != nil {
		t.Fatal(err)
	}
	if !(s.Latency <= m.Latency && m.Latency <= l.Latency) {
		t.Fatalf("latencies not monotone: %d, %d, %d", s.Latency, m.Latency, l.Latency)
	}
	if !(s.StorageBytes < m.StorageBytes && m.StorageBytes < l.StorageBytes) {
		t.Fatalf("storage not monotone: %d, %d, %d", s.StorageBytes, m.StorageBytes, l.StorageBytes)
	}
}

func TestLSTMComplexity(t *testing.T) {
	// The recurrence is serial: latency scales linearly with T.
	l8 := LSTMLatency(10, 32, 8, 64)
	l16 := LSTMLatency(10, 32, 16, 64)
	if l16 <= l8 || l16-l8 < l8/2 {
		t.Fatalf("LSTM latency not ~linear in T: %d vs %d", l8, l16)
	}
	// Voyager-class LSTM must be slower than the attention student of the
	// same scale (Table IX ordering).
	student := ModelConfig{T: 8, DI: 10, DA: 32, DF: 128, DO: 64, H: 2, L: 1}
	if LSTMLatency(10, 32, 8, 64) <= NNLatency(student) {
		t.Fatal("LSTM should be slower than the parallel attention student")
	}
	if LSTMParams(10, 32, 64) <= 0 || LSTMOps(10, 32, 8, 64) <= 0 {
		t.Fatal("degenerate LSTM cost")
	}
}

// TestDefaultConstraintsPickFrozenBuild: DefaultConstraints selects the
// student and table shape core.BuildDART and the CLIs build by default, the
// benchmark's frozen model. Changing the constraints or the cost model so
// that this pick moves changes the benchmark's model.
func TestDefaultConstraintsPickFrozenBuild(t *testing.T) {
	got, err := Configure(DefaultConstraints, DefaultSpace(8, 10, 64, 64))
	if err != nil {
		t.Fatal(err)
	}
	m, tc := got.Model, got.Table
	if m.L != 1 || m.DA != 16 || m.H != 2 || tc.K != 128 || tc.C != 2 {
		t.Fatalf("DefaultConstraints picked L=%d D=%d H=%d K=%d C=%d, want L=1 D=16 H=2 K=128 C=2",
			m.L, m.DA, m.H, tc.K, tc.C)
	}
}

// TestConfigureStudentWithinBudget: whatever student a dart budget selects,
// the tables Tabularize builds for it meet that budget. Cost depends only on
// shapes, so a random-weight student and a small random fit set suffice.
func TestConfigureStudentWithinBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fit := mat.NewTensor(4, 8, 37)
	for i := range fit.Data {
		fit.Data[i] = rng.NormFloat64()
	}
	for _, tau := range []int{60, 80, 100, 150} {
		for _, s := range []int{30 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20} {
			for _, bits := range []int{64, 8, 16} {
				spec := PolicySpec{DartLatency: tau, DartStorage: s, Bits: bits}
				cand, err := spec.ConfigureStudent(8, 37, 16)
				if err != nil {
					continue // infeasible budget: nothing is built
				}
				student := nn.NewTransformerPredictor(cand.Model.Transformer(), rng)
				built := tabular.Tabularize(student, fit, tabular.Config{Kernel: tabular.KernelConfig{
					K: cand.Table.K, C: cand.Table.C, Kind: tabular.EncoderLSH, DataBits: cand.Table.DataBits,
				}}).Hierarchy.Cost()
				if built.LatencyCycles > tau || built.StorageBytes() > s {
					t.Errorf("τ=%d s=%d bits=%d: built tables cost %d cycles, %d B (priced %d cycles, %d B)",
						tau, s, bits, built.LatencyCycles, built.StorageBytes(), cand.Latency, cand.StorageBytes)
				}
			}
		}
	}
}

// TestNNParamsMatchesBuilt pins the analytic parameter count to the network
// nn builds for every model shape of DefaultSpace.
func TestNNParamsMatchesBuilt(t *testing.T) {
	seen := map[ModelConfig]bool{}
	for _, c := range DefaultSpace(8, 10, 64, 64) {
		m := c.Model
		if seen[m] {
			continue
		}
		seen[m] = true
		built := 0
		for _, p := range nn.NewTransformerPredictor(m.Transformer(), rand.New(rand.NewSource(1))).Params() {
			built += len(p.W.Data)
		}
		if got := NNParams(m); got != built {
			t.Errorf("%+v: NNParams = %d, built network has %d", m, got, built)
		}
	}
	if len(seen) != 12 {
		t.Fatalf("DefaultSpace has %d model shapes, want 12", len(seen))
	}
}
