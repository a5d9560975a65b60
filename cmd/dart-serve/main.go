// Command dart-serve runs the online multi-session prefetch serving engine:
// a long-running daemon that multiplexes many access streams through the
// batched DART inference kernels, speaking line-delimited JSON over TCP or a
// unix socket (see internal/serve/README.md for the protocol).
//
// Serve mode:
//
//	dart-serve -listen :7381                # TCP
//	dart-serve -unix /tmp/dart.sock         # unix socket
//	dart-serve -listen :7381 -pretrain -app 462.libquantum
//
// With -pretrain the daemon first trains and tabularizes a static DART model
// on the named application's trace under config.DefaultConstraints (the
// dart-train default), then serves the "dart" prefetcher alongside the
// rule-based ones, charged the latency and storage of the built tables;
// sessions share the fixed table hierarchy while the admission layer
// coalesces their queries into batched lookups.
//
// With -online the daemon additionally runs the continual-learning loop of
// internal/online: sessions opened with prefetcher "online" are served by a
// neural model that is fine-tuned in the background from their prefetch-
// outcome feedback and hot-swapped between inference batches. -checkpoint-dir
// makes published versions durable (and recovers the newest good one on
// restart); -swap-interval sets the auto-publish cadence. The wire protocol
// gains model/swap/rollback/classes verbs (see internal/online/README.md).
//
// With -student (implies -online) the daemon also runs the distilled-student
// tier: a compact student (nn.StudentConfig of the teacher architecture) is
// continually distilled from the published teacher with the paper's KD loss
// (Eqs. 24-25) and published as the "student" model class; sessions opened
// with prefetcher "student" are served by it — lower modelled latency and
// storage — with teacher fallback, and -distill-interval sets its publish
// cadence. -ab enables shadow-compare mode: student batches are also run
// through the teacher and the per-label agreement is reported (the "ab"
// section of stats, and the replay report).
//
// With -dart (implies -student and -online) the daemon runs the full
// teach→distill→tabularize→serve pipeline live: a duty-cycled tabularizer
// periodically re-tabularizes the published student and publishes the table
// hierarchy as the versioned "dart" class — the paper's actual deployment
// artifact — which sessions opened with prefetcher "dart" are served from,
// hot-swapped between batches with student fallback until the first table
// exists. -tabularize-interval sets the re-tabularize cadence, and dart
// checkpoints ("dart-*.dart" table files) recover across restarts beside
// the model classes'. Per-session class selection is just the prefetcher
// name at open: teacher ("online"), "student", or "dart" per tenant.
//
// With -policy (or any -policy-spec) every student/dart publish is gated by
// the promotion policy engine: a candidate must sustain the configured
// agreement with its source class over a window of shadow batches before it
// is admitted, a published version whose live agreement degrades past the
// divergence threshold is auto-rolled-back, and every decision — admit,
// hold, rollback, skip, with its evidence — is kept in a bounded log served
// by the `policy` wire verb. A budgeted -policy-spec additionally drives the
// student architecture and the tabularization kernel through the
// config.Configure latency-major search instead of the fixed defaults, e.g.:
//
//	dart-serve -dart -policy-spec 'admit=0.7,window=4,diverge=0.5,windows=3,kernel=lsh,k=8,c=1'
//
// Replay mode pumps synthetic workloads through the engine at a target rate
// and reports accuracy, coverage, throughput, and request-latency
// percentiles — the continuous-load evaluation the offline cmd/dart-sim
// cannot do:
//
//	dart-serve -replay -sessions 8 -n 20000 -prefetcher stride -verify
//	dart-serve -replay -sessions 16 -qps 50000 -prefetcher dart -pretrain
//	dart-serve -replay -online -prefetcher online -soak 60s
//	dart-serve -replay -dart -prefetcher dart -soak 60s
//
// -soak repeats rounds with fresh seeds until the duration elapses, the
// nightly-CI endurance mode. Every round must deliver
// every access in order; with -verify (the default) every session on a
// deterministic class must also match the offline simulator bit-for-bit.
// Sessions of a versioned class (online, student, or dart with the dart tier
// on) are checked for completeness only — the model changes under training
// by design. Both modes run through internal/loadgen, and -json writes its
// report.
//
// Matrix mode replays a mixed-tenant scenario matrix: each tenant names a
// workload-zoo scenario (pointer chase, graph walk, zipfian key-value,
// phase-shift adversary, or any benchmark app), a serving class, a session
// count, a QPS budget, a fair-share admission weight, and optionally its own
// cache hierarchy (cache=twolevel puts a private L2 in front of the LLC):
//
//	dart-serve -matrix -dart
//	dart-serve -matrix -dart -soak 60s -matrix-spec \
//	  'hot:workload=zipf,sessions=8,class=dart,weight=3;cold:workload=chase,class=online'
//
// Every round enforces completeness and -verify as replay does, and reports
// per-tenant metrics, latency percentiles, and fair-share admission stats
// (queries, starved batches, max wait).
package main

import (
	"cmp"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dart/internal/config"
	"dart/internal/core"
	"dart/internal/dataprep"
	"dart/internal/kd"
	"dart/internal/loadgen"
	"dart/internal/nn"
	"dart/internal/online"
	"dart/internal/serve"
	"dart/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the daemon: flag parsing, the optional model tiers, then either
// one loadgen.Soak (-replay, -matrix) or the wire server until a signal.
func run(args []string) error {
	fs := flag.NewFlagSet("dart-serve", flag.ContinueOnError)
	listen := fs.String("listen", "", "TCP listen address, e.g. :7381")
	unixSock := fs.String("unix", "", "unix socket path (alternative to -listen)")
	pretrain := fs.Bool("pretrain", false, "train+tabularize a static DART model so sessions can open prefetcher \"dart\" without the versioned tier")
	app := fs.String("app", "462.libquantum", "application trace used to pretrain the DART model (suffix match)")
	trainN := fs.Int("train-n", 12000, "accesses in the DART training trace")
	queueDepth := fs.Int("queue", 64, "per-session inbox depth (backpressure bound)")
	maxBatch := fs.Int("max-batch", 64, "admission batcher coalescing cap")

	useOnline := fs.Bool("online", false, "run the continual-learning loop; sessions can open prefetcher \"online\"")
	ckptDir := fs.String("checkpoint-dir", "", "online: directory for versioned model checkpoints (recovered on restart)")
	swapInterval := fs.Duration("swap-interval", 30*time.Second, "online: auto-publish cadence (<0 disables; \"swap\" verb always works)")

	useStudent := fs.Bool("student", false, "run the distilled-student tier (implies -online); sessions can open prefetcher \"student\"")
	distillInterval := fs.Duration("distill-interval", 30*time.Second, "student: auto-publish cadence (<0 disables; \"swap\" with class \"student\" always works)")
	shadowCompare := fs.Bool("ab", false, "student: A/B shadow-compare mode — run student batches through the teacher too and report per-label agreement")

	useDart := fs.Bool("dart", false, "run the versioned tabular serving class (implies -student): re-tabularize the published student on a duty cycle and hot-swap table hierarchies; sessions can open prefetcher \"dart\"")
	tabularizeInterval := fs.Duration("tabularize-interval", 30*time.Second, "dart: auto re-tabularize cadence (<0 disables; \"swap\" with class \"dart\" always works)")

	usePolicy := fs.Bool("policy", false, "gate student/dart publishes through the promotion policy engine: candidates must sustain agreement with their source class, live divergence auto-rolls-back, every decision lands in the `policy` verb log")
	policySpec := fs.String("policy-spec", "", "promotion policy spec, key=value comma-separated (implies -policy): admit= window= diverge= windows= live= delta= log= student-latency= student-storage= dart-latency= dart-storage= kernel= k= c=")

	matrix := fs.Bool("matrix", false, "replay a mixed-tenant scenario matrix through the engine and exit")
	matrixSpec := fs.String("matrix-spec", "", "matrix: tenant spec — name:key=value,...;name:... (default: built-in 4-tenant workload-zoo matrix)")

	replay := fs.Bool("replay", false, "replay synthetic workloads through the engine and exit")
	sessions := fs.Int("sessions", 8, "replay: concurrent sessions")
	n := fs.Int("n", 20000, "replay: accesses per session")
	prefetcher := fs.String("prefetcher", "stride", "replay: prefetcher every session opens (none|bo|isb|stride|dart|online|student)")
	degree := fs.Int("degree", 4, "replay: prefetch degree")
	qps := fs.Float64("qps", 0, "replay: aggregate target accesses/sec (0 = unthrottled)")
	proto := fs.String("proto", "direct", "replay/matrix: transport — direct (in-process), json, or binary (DARTWIRE1 over loopback TCP)")
	batch := fs.Int("batch", 64, "replay/matrix: accesses per wire frame / pipelined burst (wire protocols only)")
	verify := fs.Bool("verify", true, "replay/matrix: require bit-identity with the offline simulator for every session whose class is deterministic (versioned classes are checked for completeness only)")
	soak := fs.Duration("soak", 0, "replay/matrix: repeat rounds until this much wall time has elapsed")
	jsonOut := fs.String("json", "", "replay/matrix: also write the last round's report as JSON {generated, command, host, report} to this file, overwriting it")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := serve.Config{QueueDepth: *queueDepth, MaxBatch: *maxBatch}
	var art *core.Artifacts
	// -prefetcher dart without the versioned tier falls back to the static
	// pretrained table, the pre-dart-class behaviour.
	if *pretrain || (*prefetcher == "dart" && !*useDart) {
		spec, ok := trace.AppByName(*app)
		if !ok {
			return fmt.Errorf("unknown application %q", *app)
		}
		fmt.Printf("training DART on %s (%d accesses)...\n", spec.Name, *trainN)
		var err error
		kdc := kd.DefaultConfig()
		kdc.Epochs = 6
		art, err = core.BuildDART(trace.Generate(spec, *trainN), core.Options{
			Constraints:   config.DefaultConstraints,
			TeacherEpochs: 6,
			KD:            kdc,
			FineTune:      true,
			Seed:          1,
		})
		if err != nil {
			return fmt.Errorf("training failed: %w", err)
		}
		cfg.Model = art.Tables.Hierarchy
		cfg.Data = art.Opt.Data
		cost := art.Tables.Hierarchy.Cost()
		cfg.ModelLatency, cfg.ModelStorage = cost.LatencyCycles, cost.StorageBytes()
		fmt.Printf("model ready: F1 %.3f, latency %d cycles, storage %d B\n",
			art.F1DART, cfg.ModelLatency, cfg.ModelStorage)
	}

	var learner *online.Learner
	if *useDart {
		*useStudent = true // the tabularizer re-tabularizes the student
	}
	if *useStudent || *prefetcher == "student" {
		*useOnline = true // the distiller needs the teacher loop
	}
	if *policySpec != "" {
		*usePolicy = true
	}
	if *useOnline || *prefetcher == "online" {
		var err error
		learner, err = buildLearner(art, *ckptDir, *swapInterval,
			*useStudent || *prefetcher == "student", *distillInterval,
			*useDart, *tabularizeInterval, *usePolicy, *policySpec)
		if err != nil {
			return fmt.Errorf("online learner: %w", err)
		}
		fmt.Printf("online learner ready (checkpoints: %s; intervals: swap %v, distill %v, tabularize %v; A/B %v)\n",
			orNone(*ckptDir), *swapInterval, *distillInterval, *tabularizeInterval, *shadowCompare)
		for _, c := range learner.Classes() {
			for _, skip := range c.Skipped() {
				fmt.Printf("%s checkpoint skipped: %s\n", c.Name(), skip)
			}
			if c.Version() == 0 {
				fmt.Printf("%s class ready: %s fallback until the first publish\n", c.Name(), c.Source().Name())
			} else {
				fmt.Printf("%s class ready: serving v%d\n", c.Name(), c.Version())
			}
		}
		if pol := learner.Policy(); pol != nil {
			pc := pol.Config()
			fmt.Printf("promotion policy on: admit >= %.2f over %d shadow batches, rollback < %.2f for %d windows of %d labels\n",
				pc.AdmitThreshold, pc.AdmitWindow, pc.DivergeThreshold, pc.DivergeWindows, pc.LiveWindow)
		}
		learner.Start()
		defer learner.Stop()
		cfg.Online = learner
		cfg.ShadowCompare = *shadowCompare
	}

	engine := serve.NewEngine(cfg)
	if *matrix || *replay {
		spec := loadgen.Spec{Engine: engine, Proto: *proto, Batch: *batch, Verify: *verify, Log: os.Stdout}
		if *matrix {
			if *matrixSpec == "" && !*useDart {
				return fmt.Errorf("matrix: the built-in matrix spans the online/student/dart serving classes; run with -dart, or pass -matrix-spec using classical classes only")
			}
			tenants, err := loadgen.ParseMatrixSpec(cmp.Or(*matrixSpec, loadgen.DefaultMatrixSpec))
			if err != nil {
				return fmt.Errorf("matrix: %w", err)
			}
			spec.Load = loadgen.Matrix(tenants)
		} else {
			spec.Load = loadgen.Apps(*sessions, *n,
				serve.SessionOptions{Prefetcher: *prefetcher, Degree: *degree}, *qps)
		}
		rep, err := loadgen.Soak(spec, *soak, nil)
		if learner != nil {
			printLearner(learner)
		}
		if err == nil && *jsonOut != "" {
			err = loadgen.WriteJSON(*jsonOut, rep)
		}
		return err
	}

	var ln net.Listener
	var err error
	switch {
	case *unixSock != "":
		os.Remove(*unixSock)
		ln, err = net.Listen("unix", *unixSock)
	case *listen != "":
		ln, err = net.Listen("tcp", *listen)
	default:
		return fmt.Errorf("need -listen, -unix, -replay, or -matrix")
	}
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}

	srv := serve.NewServer(engine)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		s := <-sig
		fmt.Printf("\n%v: draining...\n", s)
		results := srv.Shutdown()
		for id, res := range results {
			fmt.Printf("  %-12s accesses %d  IPC %.3f  accuracy %.1f%%\n",
				id, res.Accesses, res.IPC, res.Accuracy()*100)
		}
		if learner != nil {
			printLearner(learner)
		}
	}()
	extras := ""
	if learner != nil {
		for _, c := range learner.Classes() {
			extras += " " + c.Prefetcher()
		}
	}
	if cfg.Model != nil && !strings.Contains(extras, " dart") {
		extras += " dart"
	}
	fmt.Printf("dart-serve listening on %s (prefetchers: none bo isb stride%s)\n", ln.Addr(), extras)
	if err := srv.Serve(ln); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	// Serve returns as soon as the listener closes; the drain (and its
	// result printout) is still in flight on the signal goroutine.
	<-drained
	return nil
}

// buildLearner wires the continual-learning subsystem: the architecture is
// the DART student shape, warm-started from the trained student when the
// static model was pretrained, random otherwise; a checkpoint in dir always
// wins (recovery). With student set, the distilled-student tier is enabled
// on the compact architecture config.PolicySpec.Serving derives from the
// spec, its latency and storage modelled with the systolic-array complexity
// model; with dart set, the duty-cycled tabularizer additionally publishes
// the student's table hierarchy as the versioned "dart" class, on the
// kernel Serving derives. dart-train's distillServeStudent derives its
// tiers through the same call, so its checkpoints restore here. With gate
// set, the promotion policy engine gates every student/dart publish.
func buildLearner(art *core.Artifacts, dir string, swapInterval time.Duration, student bool, distillInterval time.Duration, dart bool, tabularizeInterval time.Duration, gate bool, specStr string) (*online.Learner, error) {
	spec, err := config.ParsePolicySpec(specStr)
	if err != nil {
		return nil, err
	}
	data := dataprep.Default()
	tcfg := nn.TransformerConfig{
		T: data.History, DIn: data.InputDim(),
		DModel: 32, DFF: 64, DOut: data.OutputDim(), Heads: 2, Layers: 1,
	}
	var warm nn.Layer
	latency, storage := 40, 1<<16
	if art != nil {
		data = art.Opt.Data
		tcfg = art.Chosen.Model.Transformer()
		warm = art.Student
		latency = config.NNLatency(art.Chosen.Model)
		storage = config.NNStorageBits(art.Chosen.Model, 32) / 8
	}
	scfg, tab, err := spec.Serving(tcfg, online.DefaultTabularConfig())
	if err != nil {
		return nil, err
	}
	cfg := online.Config{
		Data: data,
		New: func() nn.Layer {
			return nn.NewTransformerPredictor(tcfg, rand.New(rand.NewSource(7)))
		},
		Init:         warm,
		Dir:          dir,
		SwapInterval: swapInterval,
		Latency:      latency,
		StorageBytes: storage,
		Seed:         7,
	}
	if student {
		smodel := config.ModelOf(scfg)
		cfg.Student = func() nn.Layer {
			return nn.NewTransformerPredictor(scfg, rand.New(rand.NewSource(13)))
		}
		cfg.DistillInterval = distillInterval
		cfg.StudentLatency = config.NNLatency(smodel)
		cfg.StudentStorageBytes = config.NNStorageBits(smodel, 32) / 8
	}
	if dart {
		cfg.Dart = true
		cfg.TabularizeInterval = tabularizeInterval
		cfg.Tabular = tab
	}
	if gate {
		pc := online.PolicyConfig{
			AdmitThreshold:   spec.AdmitThreshold,
			AdmitWindow:      spec.AdmitWindow,
			DivergeThreshold: spec.DivergeThreshold,
			DivergeWindows:   spec.DivergeWindows,
			LiveWindow:       spec.LiveWindow,
			MinSourceDelta:   spec.MinSourceDelta,
			LogCap:           spec.LogCap,
		}
		if spec.HasStudentBudget() || spec.HasDartBudget() {
			pc.Budgets = map[string]online.Budget{}
			if spec.HasStudentBudget() {
				pc.Budgets[online.StudentClass] = online.Budget{
					LatencyCycles: spec.StudentLatency, StorageBytes: spec.StudentStorage,
				}
			}
			if spec.HasDartBudget() {
				pc.Budgets[online.DartClass] = online.Budget{
					LatencyCycles: spec.DartLatency, StorageBytes: spec.DartStorage,
				}
			}
		}
		cfg.Policy = &pc
	}
	return online.NewLearner(cfg)
}

// printLearner dumps the online learner's state for log scraping.
func printLearner(l *online.Learner) {
	st := l.Stats()
	fmt.Printf("online: v%d (%d published)  ingested %d (%.0f/s, %d dropped)  useful %d late %d\n",
		st.Version, st.Published, st.Ingested, st.PerSec, st.Dropped, st.Useful, st.Late)
	fmt.Printf("online: examples %d  trained %d (%d steps)  loss %.4f (trend %+.4f)\n",
		st.Examples, st.Trained, st.Steps, st.Loss, st.LossTrend)
	if _, err := l.Class(online.StudentClass); err == nil {
		fmt.Printf("student: v%d (%d published)  distilled %d (%d steps)  kd-loss %.4f (trend %+.4f)\n",
			st.StudentVersion, st.StudentPublished, st.Distilled, st.DistillSteps,
			st.DistillLoss, st.DistillTrend)
	}
	if c, err := l.Class(online.DartClass); err == nil {
		latency, storage := c.Cost()
		fmt.Printf("dart: v%d (%d published)  tabularized %d (%.0f ms total)  attempts %d skips %d  latency %d cycles  storage %d B\n",
			st.DartVersion, st.DartPublished, st.Tabularized, st.TabularizeMs,
			st.DartAttempts, st.DartSkips, latency, storage)
	}
	if pol := l.Policy(); pol != nil {
		ps := pol.Stats()
		fmt.Printf("policy: admitted %d  held %d  rolled-back %d  skipped %d  (%d decisions)\n",
			ps.Admitted, ps.Held, ps.RolledBack, ps.Skipped, ps.Decisions)
		ds := pol.Decisions()
		if len(ds) > 5 {
			ds = ds[len(ds)-5:]
		}
		for _, d := range ds {
			fmt.Printf("policy: #%d %s %s v%d: %s\n", d.Seq, d.Class, d.Action, d.Version, d.Reason)
		}
	}
}

func orNone(s string) string {
	if s == "" {
		return "disabled"
	}
	return s
}
