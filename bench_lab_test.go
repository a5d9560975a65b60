package dart

// Shared experiment lab for the benchmark harness: every table/figure bench
// draws on per-application artifacts (trained teacher/students, tabularized
// predictors, simulator runs) that are expensive to build, so they are built
// once per `go test -bench` process and cached here. Scales are reduced from
// the paper's (smaller traces, fewer epochs) to keep the full harness within
// a normal bench run; EXPERIMENTS.md records the shape comparison.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dart/internal/config"
	"dart/internal/core"
	"dart/internal/dataprep"
	"dart/internal/kd"
	"dart/internal/metrics"
	"dart/internal/nn"
	"dart/internal/prefetch"
	"dart/internal/sim"
	"dart/internal/tabular"
	"dart/internal/trace"
)

const (
	labAccesses = 3500
	labDegree   = 4
)

// labOptions is the reduced-scale pipeline configuration used by all benches.
func labOptions() core.Options {
	return core.Options{
		Data:             dataprep.Default(),
		Constraints:      config.DefaultConstraints,
		TeacherDModel:    48,
		TeacherDFF:       96,
		TeacherHeads:     4,
		TeacherLayers:    2,
		TeacherEpochs:    6,
		KD:               kdEpochs(8),
		FineTune:         true,
		FineTuneEpochs:   20,
		FitSamples:       256,
		TrainStudentNoKD: true,
		Seed:             1,
	}
}

// simRow is one prefetcher's simulated outcome on one app.
type simRow struct {
	name     string
	accuracy float64
	coverage float64
	ipcImp   float64
	latency  int
}

// appLab caches everything derived from one application's trace.
type appLab struct {
	spec    trace.AppSpec
	recs    []trace.Record
	art     *core.Artifacts
	noFT    *tabular.Result // tabularized without fine-tuning (Table VII, Fig 11)
	voyager *nn.Sequential  // LSTM predictor (Voyager-class baseline)
	f1Voy   float64
	simRows []simRow // filled by simLab on demand

	// Coarse-quantization tabularizations (K=16, C=2): the regime where
	// approximation error accumulates and fine-tuning has something to fix.
	coarseFTRes, coarseNoFTRes *tabular.Result
	coarseFT, coarseNoFT       float64
}

var (
	labMu   sync.Mutex
	labMap  = map[string]*appLab{}
	prnOnce sync.Map
)

// kdEpochs is kd.DefaultConfig with the epoch count overridden.
func kdEpochs(n int) kd.Config {
	c := kd.DefaultConfig()
	c.Epochs = n
	return c
}

// printOnce guards experiment-row printing against benchmark re-invocation
// with growing b.N.
func printOnce(key string, fn func()) {
	if _, loaded := prnOnce.LoadOrStore(key, true); !loaded {
		fn()
	}
}

// getLab builds (once) the pipeline artifacts for an application.
func getLab(b *testing.B, appName string) *appLab {
	b.Helper()
	labMu.Lock()
	defer labMu.Unlock()
	if l, ok := labMap[appName]; ok {
		return l
	}
	spec, ok := trace.AppByName(appName)
	if !ok {
		b.Fatalf("unknown app %s", appName)
	}
	recs := trace.Generate(spec, labAccesses)
	art, err := core.BuildDART(recs, labOptions())
	if err != nil {
		b.Fatal(err)
	}
	// No-fine-tuning variant of the same student, same table config.
	fit := art.Train.X
	if fit.N > labOptions().FitSamples {
		fit = fit.Gather(rand.New(rand.NewSource(1)).Perm(fit.N)[:labOptions().FitSamples])
	}
	noFT := tabular.Tabularize(art.Student, fit, tabular.Config{
		Kernel: tabular.KernelConfig{
			K: art.Chosen.Table.K, C: art.Chosen.Table.C, DataBits: art.Chosen.Table.DataBits,
		},
		FineTune: false,
		Seed:     1,
	})
	// Voyager-class LSTM baseline.
	rng := rand.New(rand.NewSource(2))
	voy := nn.NewLSTMPredictor(art.Opt.Data.InputDim(), 32, art.Opt.Data.OutputDim(), rng)
	tr := nn.NewTrainer(voy, nn.NewAdam(2e-3), 32, rng)
	for e := 0; e < 4; e++ {
		tr.TrainEpoch(art.Train.X, art.Train.Y, nn.BCEWithLogits)
	}
	l := &appLab{
		spec: spec, recs: recs, art: art, noFT: noFT,
		voyager: voy,
		f1Voy:   core.EvaluateModelF1(voy, art.Test),
	}
	coarse := func(ft bool) *tabular.Result {
		return tabular.Tabularize(art.Student, fit, tabular.Config{
			Kernel:         tabular.KernelConfig{K: 16, C: 2, DataBits: 32},
			FineTune:       ft,
			FineTuneEpochs: 20,
			Seed:           1,
		})
	}
	l.coarseNoFTRes = coarse(false)
	l.coarseFTRes = coarse(true)
	l.coarseNoFT = l.evalF1(l.coarseNoFTRes.Hierarchy)
	l.coarseFT = l.evalF1(l.coarseFTRes.Hierarchy)
	labMap[appName] = l
	return l
}

// benchApps is the Table IV application list.
func benchApps() []string {
	names := make([]string, 0, 8)
	for _, a := range trace.Apps() {
		names = append(names, a.Name)
	}
	return names
}

// simLab runs (once) the full prefetcher comparison for an app.
func (l *appLab) simLab() []simRow {
	if l.simRows != nil {
		return l.simRows
	}
	cfg := sim.DefaultConfig()
	base := sim.Run(l.recs, sim.NoPrefetcher{}, cfg)
	dcfg := l.art.Opt.Data
	voyLat := config.LSTMLatency(dcfg.InputDim(), 32, dcfg.History, dcfg.OutputDim())
	voyStore := config.LSTMParams(dcfg.InputDim(), 32, dcfg.OutputDim()) * 4
	// Degrees follow the source designs: Michaud's BO issues one prefetch at
	// the learned offset per access; ISB walks its structural stream; the
	// delta-bitmap predictors issue variable-degree prefetches (all strong
	// positive bits, capped at the simulator's MaxDegree).
	pfs := []sim.Prefetcher{
		prefetch.NewBestOffset(1),
		prefetch.NewISB(labDegree),
		l.art.Prefetcher("DART", 2*labDegree),
		l.art.StudentPrefetcher("TransFetch", 2*labDegree, false),
		l.art.StudentPrefetcher("TransFetch-I", 2*labDegree, true),
		prefetch.NewNNPrefetcher("Voyager", prefetch.NNModel{Model: l.voyager}, dcfg, voyLat, voyStore, 2*labDegree),
		prefetch.NewNNPrefetcher("Voyager-I", prefetch.NNModel{Model: l.voyager}, dcfg, 0, voyStore, 2*labDegree),
	}
	rows := make([]simRow, 0, len(pfs))
	for _, pf := range pfs {
		r := sim.Run(l.recs, pf, cfg)
		rows = append(rows, simRow{
			name:     pf.Name(),
			accuracy: r.Accuracy(),
			coverage: sim.Coverage(base, r),
			ipcImp:   sim.IPCImprovement(base, r),
			latency:  pf.Latency(),
		})
	}
	l.simRows = rows
	return rows
}

// evalF1 computes a hierarchy's F1 on (a deterministic cap of) the lab's
// test split; hierarchy queries with large K dominate harness time otherwise.
func (l *appLab) evalF1(h *tabular.Hierarchy) float64 {
	x, y := l.art.Test.X, l.art.Test.Y
	if x.N > 500 {
		idx := make([]int, 500)
		for i := range idx {
			idx[i] = i
		}
		x, y = x.Gather(idx), y.Gather(idx)
	}
	out := h.QueryBatch(x)
	return metrics.F1FromLogits(out.Data, y.Data)
}

// keepBusy gives the benchmark loop a body so b.N escalation stays cheap
// while the measured artifact is cached.
func keepBusy(b *testing.B, v float64) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += v
	}
	_ = sink
}

// pct renders a ratio as a percentage string.
func pct(x float64) string { return fmt.Sprintf("%.1f%%", x*100) }

// memoVals caches expensive scalar experiment results across the benchmark
// harness's b.N escalation re-invocations.
var memoVals sync.Map

// memoF1 returns the cached value for key, computing it once.
func memoF1(key string, fn func() float64) float64 {
	if v, ok := memoVals.Load(key); ok {
		return v.(float64)
	}
	v := fn()
	memoVals.Store(key, v)
	return v
}
