package serve_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"dart/internal/dataprep"
	"dart/internal/loadgen"
	"dart/internal/mat"
	"dart/internal/nn"
	"dart/internal/serve"
	"dart/internal/sim"
	"dart/internal/tabular"
	"dart/internal/trace"
)

// These tests drive the engine under load through internal/loadgen and pin
// what serving must guarantee there: results bit-identical to the offline
// simulator on every transport, nothing dropped or reordered, fair-share
// admission, and no session leaked when a run fails.

// twoLevelTestCfg is a small private-L2-plus-LLC hierarchy for matrix
// tenants that opt out of the engine-default single-level machine.
func twoLevelTestCfg() sim.Config {
	cfg := serve.SmallSimCfg()
	cfg.L2Blocks = 1024
	cfg.L2Ways = 8
	cfg.L2HitLatency = 14
	cfg.L2Inclusive = true
	return cfg
}

// sessions opens every trace with one prefetcher, in id order.
func sessions(prefetcher string, traces map[string][]trace.Record) []loadgen.Session {
	var out []loadgen.Session
	for id, recs := range traces {
		out = append(out, loadgen.Session{ID: id, Recs: recs,
			Opts: serve.SessionOptions{Prefetcher: prefetcher, Degree: 4}})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// matrix runs one round of a tenant matrix through spec's target.
func matrix(t *testing.T, spec loadgen.Spec, tenants []loadgen.TenantSpec) loadgen.Report {
	t.Helper()
	spec.Load = loadgen.Matrix(tenants)
	rep, err := loadgen.Soak(spec, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestReplayVerifiesOffline runs the load generator end to end with
// verification on.
func TestReplayVerifiesOffline(t *testing.T) {
	e := serve.NewEngine(serve.Config{SimCfg: serve.SmallSimCfg()})
	traces := make(map[string][]trace.Record)
	for i := 0; i < 8; i++ {
		traces[fmt.Sprintf("core%d", i)] = serve.SessionTrace(int64(i), 800)
	}
	rep, err := loadgen.Run(loadgen.Spec{Engine: e, Verify: true}, sessions("bo", traces))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified {
		t.Fatalf("replay not bit-identical to offline: %+v", rep.Sessions)
	}
	if rep.Merged.Accesses != 8*800 {
		t.Fatalf("merged accesses %d, want %d", rep.Merged.Accesses, 8*800)
	}
	if rep.Latency.Count != 8*800 {
		t.Fatalf("latency samples %d, want %d", rep.Latency.Count, 8*800)
	}
	if rep.String() == "" {
		t.Fatal("empty report")
	}
	e.Drain()
}

// TestOnlineDisabledBitIdentical: with no learner configured the engine is
// byte-for-byte the learner-free engine — replay verification must still hold.
// (The always-on engine tests cover this too; this pins the claim next to
// the online code that must not break it.)
func TestOnlineDisabledBitIdentical(t *testing.T) {
	e := serve.NewEngine(serve.Config{SimCfg: serve.SmallSimCfg()})
	traces := map[string][]trace.Record{}
	for i := 0; i < 4; i++ {
		traces[fmt.Sprintf("c%d", i)] = serve.SessionTrace(int64(40+i), 900)
	}
	rep, err := loadgen.Run(loadgen.Spec{Engine: e, Verify: true}, sessions("stride", traces))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified {
		t.Fatalf("replay without online training is no longer bit-identical: %+v", rep.Sessions)
	}
	e.Drain()
}

// TestReplayWireBitIdentity is the cross-protocol acceptance check: the same
// traces replayed in-process, over JSON lines, and over DARTWIRE1 binary
// framing must produce bit-identical per-session results — each run verified
// against the offline simulator, and the merged results compared across
// transports.
func TestReplayWireBitIdentity(t *testing.T) {
	traces := map[string][]trace.Record{
		"a": serve.SessionTrace(1, 700),
		"b": serve.SessionTrace(2, 700),
		"c": serve.SessionTrace(3, 700),
	}
	merged := map[string]sim.Result{}
	for _, proto := range []string{"direct", "json", "binary"} {
		e := serve.NewEngine(serve.Config{SimCfg: serve.SmallSimCfg()})
		rep, err := loadgen.Run(loadgen.Spec{Engine: e, Verify: true, Proto: proto, Batch: 17},
			sessions("stride", traces))
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if !rep.Verified {
			t.Fatalf("%s: served results are not bit-identical to the offline simulator: %+v", proto, rep.Sessions)
		}
		if rep.Merged.Accesses != 3*700 {
			t.Fatalf("%s: merged %d accesses, want %d", proto, rep.Merged.Accesses, 3*700)
		}
		merged[proto] = rep.Merged
		e.Drain()
	}
	if merged["json"] != merged["direct"] || merged["binary"] != merged["direct"] {
		t.Fatalf("transports disagree:\ndirect %+v\njson   %+v\nbinary %+v",
			merged["direct"], merged["json"], merged["binary"])
	}

	if _, err := loadgen.Run(loadgen.Spec{
		Engine: serve.NewEngine(serve.Config{SimCfg: serve.SmallSimCfg()}), Proto: "telepathy",
	}, sessions("stride", traces)); err == nil {
		t.Fatal("unknown replay protocol accepted")
	}
}

// TestReplayClosesSessionsOnOpenError is the regression test for the session
// leak: when Open fails mid-loop (here: an id conflict injected by
// pre-opening one of the run's session ids), every session the run had
// already opened must be closed again before the error returns. Pre-fix,
// those sessions leaked their actors into the engine forever.
func TestReplayClosesSessionsOnOpenError(t *testing.T) {
	e := serve.NewEngine(serve.Config{SimCfg: serve.SmallSimCfg()})
	traces := map[string][]trace.Record{}
	for i := 0; i < 4; i++ {
		traces[fmt.Sprintf("c%d", i)] = serve.SessionTrace(int64(i), 100)
	}
	// The sessions open in order (c0, c1, c2, c3); pre-opening c2 makes the
	// third Open fail after c0 and c1 succeeded.
	if err := e.Open("c2", "stride", 4); err != nil {
		t.Fatal(err)
	}
	_, err := loadgen.Run(loadgen.Spec{Engine: e}, sessions("stride", traces))
	if err == nil || !strings.Contains(err.Error(), "already open") {
		t.Fatalf("replay error = %v, want id-conflict error", err)
	}
	if got := e.Sessions(); len(got) != 1 || got[0] != "c2" {
		t.Fatalf("sessions after failed replay = %v, want only the injected [c2]", got)
	}
	if _, err := e.Close("c2"); err != nil {
		t.Fatal(err)
	}
	if got := e.Sessions(); len(got) != 0 {
		t.Fatalf("engine session count %d, want 0", len(got))
	}
	e.Drain()
}

// TestReplayClosesSessionsOnAccessError injects a failure mid-run by closing
// one session out from under the load generator: the victim's next Access errors,
// Run returns that error, and the cleanup must still close every other
// session so the engine's session count returns to zero.
func TestReplayClosesSessionsOnAccessError(t *testing.T) {
	e := serve.NewEngine(serve.Config{SimCfg: serve.SmallSimCfg()})
	traces := map[string][]trace.Record{}
	for i := 0; i < 4; i++ {
		traces[fmt.Sprintf("c%d", i)] = serve.SessionTrace(int64(i), 50_000)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := loadgen.Run(loadgen.Spec{Engine: e}, sessions("stride", traces))
		errc <- err
	}()
	// Wait until the run has all four sessions streaming, then yank one.
	deadline := time.Now().Add(5 * time.Second)
	for len(e.Sessions()) < 4 {
		if time.Now().After(deadline) {
			t.Fatal("replay never opened its sessions")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := e.Close("c1"); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err == nil || !strings.Contains(err.Error(), "c1") {
		t.Fatalf("replay error = %v, want one naming the closed session c1", err)
	}
	if got := e.Sessions(); len(got) != 0 {
		t.Fatalf("sessions leaked after failed replay: %v", got)
	}
	e.Drain()
}

// TestReplayMatrixMixedTenants is the workload-zoo acceptance scenario: four
// tenants spanning four generator families (a SPEC-style app, pointer
// chasing, a zipfian key-value store, and the phase-shifting adversary), two
// cache hierarchies (engine-default single-level and a per-tenant two-level
// override), and all three hot-swappable serving classes plus a classical
// baseline — replayed concurrently through one engine with per-tenant
// fair-share weights. Every access must come back in order, per tenant. The
// same matrix runs once in-process and once over DARTWIRE1 binary framing:
// the wire must carry every tenant option (class selection, weights,
// per-tenant machine models) without changing the outcome shape.
func TestReplayMatrixMixedTenants(t *testing.T) {
	for _, proto := range []string{"direct", "binary"} {
		t.Run(proto, func(t *testing.T) {
			testMatrixMixedTenants(t, proto)
		})
	}
}

func testMatrixMixedTenants(t *testing.T, proto string) {
	l := serve.BuildDartLearner(t, t.TempDir())
	l.Start()
	defer l.Stop()
	e := serve.NewEngine(serve.Config{SimCfg: serve.SmallSimCfg(), Online: l, MaxBatch: 8})

	twoLevel := twoLevelTestCfg()
	tenants := []loadgen.TenantSpec{
		{Name: "batch", Workload: "milc", Class: "stride", Sessions: 1, N: 800},
		{Name: "svc", Workload: "chase", Class: "online", Sessions: 2, N: 600, Weight: 3},
		{Name: "kv", Workload: "zipf", Class: "student", Sessions: 1, N: 600, SimCfg: &twoLevel},
		{Name: "adv", Workload: "phase", Class: "dart", Sessions: 1, N: 600, SimCfg: &twoLevel, Seed: 5},
	}
	rep := matrix(t, loadgen.Spec{Engine: e, Proto: proto, Batch: 32, Verify: true}, tenants)
	if !rep.Complete || !rep.Verified {
		t.Fatalf("matrix incomplete or unverified: %+v", rep)
	}
	if len(rep.Tenants) != len(tenants) {
		t.Fatalf("%d tenant reports, want %d", len(rep.Tenants), len(tenants))
	}
	wantTotal := 0
	byName := map[string]loadgen.TenantReport{}
	for i, tr := range rep.Tenants {
		spec := tenants[i]
		byName[tr.Tenant] = tr
		if tr.Tenant != spec.Name {
			t.Fatalf("tenant %d reported as %q, want %q (order not preserved)", i, tr.Tenant, spec.Name)
		}
		want := spec.Sessions * spec.N
		if !tr.Complete || tr.Merged.Accesses != want {
			t.Fatalf("tenant %q: complete=%v accesses=%d want %d",
				tr.Tenant, tr.Complete, tr.Merged.Accesses, want)
		}
		if tr.Merged.Instructions == 0 || tr.Latency.Count == 0 {
			t.Fatalf("tenant %q: empty metrics: %+v", tr.Tenant, tr)
		}
		wantTotal += want
	}
	if rep.Merged.Accesses != wantTotal {
		t.Fatalf("merged accesses %d, want %d", rep.Merged.Accesses, wantTotal)
	}
	// Only the classical baseline is checkable; every learner class
	// hot-swaps under training and is checked for completeness only.
	if !byName["batch"].Verified {
		t.Fatal("stride tenant not verified bit-identical offline")
	}
	for _, name := range []string{"svc", "kv", "adv"} {
		if !byName[name].Unchecked {
			t.Fatalf("learner-class tenant %q not marked unchecked", name)
		}
	}

	// The model-backed classes must have gone through fair-share admission…
	for _, name := range []string{"svc", "kv", "adv"} {
		if byName[name].Admission.Queries == 0 {
			t.Fatalf("tenant %q served a model class but recorded no admission queries", name)
		}
	}
	if w := byName["svc"].Admission.Weight; w != 3 {
		t.Fatalf("svc admission weight %d, want 3", w)
	}
	// …while the classical baseline never touches a batcher.
	if q := byName["batch"].Admission.Queries; q != 0 {
		t.Fatalf("stride tenant recorded %d admission queries, want 0", q)
	}

	// The high-reuse tenant on the two-level override filters demand traffic
	// through its private L2 (the phase-shift adversary streams with almost
	// no short-range reuse, so only the config proves its hierarchy);
	// single-level tenants must report none.
	if byName["kv"].Merged.L2Hits == 0 {
		t.Fatal("two-level tenant \"kv\" saw no L2 hits")
	}
	for _, name := range []string{"batch", "svc"} {
		if h := byName[name].Merged.L2Hits; h != 0 {
			t.Fatalf("single-level tenant %q reports %d L2 hits", name, h)
		}
	}

	s := rep.String()
	for _, name := range []string{"batch", "svc", "kv", "adv", "admission", "latency"} {
		if !strings.Contains(s, name) {
			t.Fatalf("matrix report missing %q:\n%s", name, s)
		}
	}
	if got := len(e.Sessions()); got != 0 {
		t.Fatalf("%d sessions left open after matrix replay", got)
	}
	e.Drain()
}

// TestReplayMatrixDeterministicTraces pins the replay-side determinism half
// of the zoo contract: two matrix runs over the same specs drive identical
// traces, so per-tenant offline-identical simulator results must match
// exactly whenever the serving class itself is deterministic.
func TestReplayMatrixDeterministicTraces(t *testing.T) {
	run := func() []loadgen.TenantReport {
		e := serve.NewEngine(serve.Config{SimCfg: serve.SmallSimCfg()})
		defer e.Drain()
		twoLevel := twoLevelTestCfg()
		rep := matrix(t, loadgen.Spec{Engine: e, Verify: true}, []loadgen.TenantSpec{
			{Name: "a", Workload: "chase", Class: "stride", Sessions: 2, N: 500},
			{Name: "b", Workload: "graph", Class: "bo", N: 500},
			{Name: "c", Workload: "zipf", Class: "isb", N: 500, SimCfg: &twoLevel},
		})
		if !rep.Complete {
			t.Fatalf("incomplete: %+v", rep)
		}
		if !rep.Verified {
			t.Fatalf("deterministic classes not bit-identical offline: %+v", rep.Tenants)
		}
		return rep.Tenants
	}
	x, y := run(), run()
	for i := range x {
		if x[i].Merged != y[i].Merged {
			t.Fatalf("tenant %q not deterministic:\n%+v\n%+v", x[i].Tenant, x[i].Merged, y[i].Merged)
		}
	}
}

// TestFairShareMatrixUnderLoad is the end-to-end starvation regression: a
// hot tenant at 100x the cold tenants' QPS floods the shared DART admission
// batcher, and the cold tenants must still complete every access in order
// with a bounded admission wait. Run under -race in CI's race pass.
func TestFairShareMatrixUnderLoad(t *testing.T) {
	data := serve.OnlineTestData()
	h := serve.BuildHierarchy(t, data)
	e := serve.NewEngine(serve.Config{
		SimCfg: serve.SmallSimCfg(), MaxBatch: 4,
		Model: h, Data: data, ModelLatency: 37, ModelStorage: 1 << 16,
	})

	rep := matrix(t, loadgen.Spec{Engine: e}, []loadgen.TenantSpec{
		{Name: "hot", Workload: "zipf", Class: "dart", Sessions: 12, N: 500, QPS: 50000},
		{Name: "cold1", Workload: "chase", Class: "dart", Sessions: 1, N: 60, QPS: 500},
		{Name: "cold2", Workload: "phase", Class: "dart", Sessions: 1, N: 60, QPS: 500},
	})
	if !rep.Complete {
		t.Fatalf("accesses dropped or reordered under load: %+v", rep)
	}
	for _, tr := range rep.Tenants {
		if tr.Tenant == "hot" {
			continue
		}
		if tr.Admission.Queries == 0 {
			t.Fatalf("tenant %q recorded no admission queries", tr.Tenant)
		}
		if tr.Admission.MaxWaitBatches > 2 {
			t.Fatalf("cold tenant %q waited %d batches behind the hot flood; want <= 2",
				tr.Tenant, tr.Admission.MaxWaitBatches)
		}
		if tr.Admission.Starved != 0 {
			t.Fatalf("cold tenant %q starved %d times with a single session",
				tr.Tenant, tr.Admission.Starved)
		}
	}
	e.Drain()
}

// quantMatrixHierarchy tabularizes one deterministic transformer predictor at
// the given stored width: identical network, fit set, and kernel seeds across
// calls, so a float64 and an int8 hierarchy from this helper differ only in
// how their tables store entries.
func quantMatrixHierarchy(t testing.TB, data dataprep.Config, bits int) *tabular.Hierarchy {
	t.Helper()
	tcfg := nn.TransformerConfig{
		T: data.History, DIn: data.InputDim(),
		DModel: 8, DFF: 16, DOut: data.OutputDim(), Heads: 2, Layers: 1,
	}
	net := nn.NewTransformerPredictor(tcfg, rand.New(rand.NewSource(11)))
	rng := rand.New(rand.NewSource(23))
	fit := mat.NewTensor(32, data.History, data.InputDim())
	for i := range fit.Data {
		fit.Data[i] = rng.NormFloat64()
	}
	cfg := tabular.Config{
		Kernel: tabular.KernelConfig{K: 4, C: 1, Kind: tabular.EncoderLSH, DataBits: bits},
		Seed:   17,
	}
	return tabular.Tabularize(net, fit, cfg).Hierarchy
}

// TestQuantizedMatrixAccuracyWithinEpsilon is the end-to-end acceptance bar
// for quantization: the same mixed-tenant scenario matrix replayed against a
// float64 dart table and against its int8 twin must land within a fixed
// prefetch-accuracy epsilon on every dart tenant. Both engines serve a
// static Model (no learner), so each replay is deterministic — the engine's
// core contract pins served results bit-identical to offline simulation —
// and the comparison cannot flake on training timing. The classical-baseline
// tenant doubles as a control: its sessions never touch the model, so its
// merged result must be bit-identical between the two runs.
func TestQuantizedMatrixAccuracyWithinEpsilon(t *testing.T) {
	data := dataprep.Default()
	twoLevel := twoLevelTestCfg()
	tenants := []loadgen.TenantSpec{
		{Name: "batch", Workload: "milc", Class: "stride", N: 600},
		{Name: "svc", Workload: "chase", Class: "dart", Sessions: 2, N: 600, Weight: 2},
		{Name: "kv", Workload: "zipf", Class: "dart", N: 600, SimCfg: &twoLevel},
		{Name: "adv", Workload: "phase", Class: "dart", N: 600, Seed: 5},
	}
	run := func(h *tabular.Hierarchy) loadgen.Report {
		e := serve.NewEngine(serve.Config{
			SimCfg: serve.SmallSimCfg(), MaxBatch: 8,
			Model: h, Data: data,
			ModelLatency: 37, ModelStorage: h.Cost().StorageBytes(),
		})
		return matrix(t, loadgen.Spec{Engine: e, Batch: 32}, tenants)
	}

	hf := quantMatrixHierarchy(t, data, 0)
	hq := quantMatrixHierarchy(t, data, 8)
	// Sanity that the comparison is between genuinely different widths. (The
	// >=4x shrink gate runs in dart-benchcheck at the serving config, where
	// the table payload dominates; this tiny fixture carries proportionally
	// more float64 layernorm/sigmoid overhead.)
	if fb, qb := hf.Cost().StorageBytes(), hq.Cost().StorageBytes(); qb*2 > fb {
		t.Fatalf("int8 hierarchy %d B not >=2x below float %d B", qb, fb)
	}
	repF := run(hf)
	repQ := run(hq)

	const eps = 0.02
	for i := range repF.Tenants {
		tf, tq := repF.Tenants[i], repQ.Tenants[i]
		if tf.Class != "dart" {
			if tf.Merged != tq.Merged {
				t.Fatalf("control tenant %q diverged between runs:\nfloat %+v\nint8  %+v",
					tf.Tenant, tf.Merged, tq.Merged)
			}
			continue
		}
		if tf.Merged.PrefetchIssued == 0 || tq.Merged.PrefetchIssued == 0 {
			t.Fatalf("dart tenant %q issued no prefetches (float %d, int8 %d) — epsilon check vacuous",
				tf.Tenant, tf.Merged.PrefetchIssued, tq.Merged.PrefetchIssued)
		}
		af, aq := tf.Merged.Accuracy(), tq.Merged.Accuracy()
		if d := af - aq; d > eps || d < -eps {
			t.Fatalf("dart tenant %q: prefetch accuracy %.4f (float) vs %.4f (int8), |delta| > %.2f",
				tf.Tenant, af, aq, eps)
		}
	}
}
