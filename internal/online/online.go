// Package online closes the feedback→train→publish→swap loop around the
// serving engine: a background continual-learning subsystem that turns the
// prefetch-outcome feedback of live serve sessions into training minibatches,
// fine-tunes a shadow copy of the neural predictor with nn.Trainer at a
// bounded duty cycle, and publishes immutable versioned snapshots that the
// engine's admission batcher hot-swaps between inference batches.
//
// Dataflow (see README.md for the invariants):
//
//	session actors ──Push──► per-session lock-free Ring (SPSC, lossy)
//	                              │ Drain (collector tick)
//	                              ▼
//	                      builder: NNPrefetcher.BuildInput windows +
//	                      look-forward delta-bitmap labels (≡ dataprep.Build)
//	                              │ emit
//	                              ▼
//	                      example reservoir (overwrite-oldest recency bias)
//	                              │ minibatch sample
//	                              ▼
//	                      nn.Trainer on the shadow model (duty-cycled)
//	                              │ Publish (swap interval / forced)
//	                              ▼
//	                      Store: atomic.Pointer[Model] + CRC checkpoints
//	                              │ Load (per inference batch)
//	                              ▼
//	                      serve admission batcher — one version per batch
package online

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dart/internal/dataprep"
	"dart/internal/kd"
	"dart/internal/mat"
	"dart/internal/nn"
	"dart/internal/sim"
	"dart/internal/tabular"
)

// Config tunes the learner. Zero values select sensible defaults.
type Config struct {
	Data dataprep.Config // input/label construction (must match serving sessions)
	New  func() nn.Layer // architecture factory; every call must produce identical shapes
	Init nn.Layer        // optional warm start; params copied when no checkpoint is recovered
	Dir  string          // checkpoint directory ("" = in-memory only)

	BatchSize    int           // minibatch size (default 32)
	LR           float64       // Adam learning rate (default 1e-3)
	BufferCap    int           // example reservoir capacity (default 4096)
	RingCap      int           // per-session event ring capacity (default 4096)
	Duty         float64       // max fraction of wall time spent training (default 0.25)
	Tick         time.Duration // collector cadence (default 2ms)
	SwapInterval time.Duration // auto-publish cadence (default 30s; <0 disables auto-publish)

	Latency      int // modelled inference latency of the online prefetcher (cycles)
	StorageBytes int // modelled storage of the online prefetcher

	// Student, when non-nil, enables the distilled-student tier (the paper's
	// deployment story, Sec. VI-D): alongside fine-tuning the shadow teacher,
	// the learner distills this compact architecture from the currently
	// published teacher version with kd.Loss over the same streamed examples,
	// and publishes student snapshots as the "student" model class of the
	// versioned store. Every call must produce identical shapes, with the
	// same input/output dims as New.
	Student     func() nn.Layer
	StudentInit nn.Layer // optional warm start (e.g. the offline-distilled student)

	Distill         kd.Config     // λ/temperature/LR of Eq. 25 (zero value: kd.DefaultConfig)
	DistillInterval time.Duration // student auto-publish cadence (default: SwapInterval; <0 disables)

	StudentLatency      int // modelled inference latency of the student prefetcher (cycles)
	StudentStorageBytes int // modelled storage of the student prefetcher

	// Dart, when true, enables the tabularized serving class — the paper's
	// actual deployment artifact. A duty-cycled tabularizer periodically
	// re-tabularizes the published student (tabular.Tabularize reads the
	// published network directly, as the distiller does) over the freshest
	// reservoir examples and publishes the resulting hierarchy as the "dart"
	// class of the versioned store, where serving hot-swaps it between
	// inference batches like any other class. Requires Student.
	Dart bool

	Tabular tabular.Config // tabularization config (zero Kernel selects defaults)

	// TabularizeInterval is the auto re-tabularize cadence (default:
	// DistillInterval; <0 disables — the forced SwapDart always works). An
	// auto cycle is skipped while the published student hasn't changed since
	// the table was built.
	TabularizeInterval time.Duration

	DartSamples int // kernel-fitting examples drawn from the reservoir (default 128)

	// DartLatency/DartStorageBytes override the modelled cost of the dart
	// prefetcher; when 0 the analytic Cost of the currently published
	// hierarchy is used (falling back to the student's numbers until the
	// first table is published).
	DartLatency      int
	DartStorageBytes int

	// Policy, when non-nil, enables the promotion policy engine: student and
	// dart publishes are gated on candidate-vs-source agreement and budget,
	// live divergence auto-rolls-back, and every decision lands in the
	// bounded decision log (see policy.go). Nil keeps the legacy
	// unconditional duty-cycle publish path bit-identical to previous
	// releases — the gate's evaluation batches draw from a dedicated RNG so
	// enabling it never perturbs the training stream either.
	Policy *PolicyConfig

	Seed int64
}

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.LR == 0 {
		c.LR = 1e-3
	}
	if c.BufferCap <= 0 {
		c.BufferCap = 4096
	}
	if c.RingCap <= 0 {
		c.RingCap = 4096
	}
	if c.Duty <= 0 {
		c.Duty = 0.25
	}
	if c.Duty > 1 {
		c.Duty = 1
	}
	if c.Tick <= 0 {
		c.Tick = 2 * time.Millisecond
	}
	if c.SwapInterval == 0 {
		c.SwapInterval = 30 * time.Second
	}
	if c.DistillInterval == 0 {
		c.DistillInterval = c.SwapInterval
	}
	if c.TabularizeInterval == 0 {
		c.TabularizeInterval = c.DistillInterval
	}
	if c.DartSamples <= 0 {
		c.DartSamples = 128
	}
	if c.Dart && c.Tabular == (tabular.Config{}) {
		c.Tabular = DefaultTabularConfig()
	}
	if c.Distill == (kd.Config{}) {
		c.Distill = kd.DefaultConfig()
	}
	if c.Data.History == 0 {
		c.Data = dataprep.Default()
	}
	return c
}

// lossTrend tracks a training loss as two EWMAs; fast minus slow is negative
// while the loss is improving.
type lossTrend struct {
	fast, slow float64 // alpha 0.2 and 0.02
	seeded     bool
}

func (t *lossTrend) observe(loss float64) {
	if !t.seeded {
		*t = lossTrend{fast: loss, slow: loss, seeded: true}
		return
	}
	t.fast += 0.2 * (loss - t.fast)
	t.slow += 0.02 * (loss - t.slow)
}

// sessionTap is one attached session: its event ring and example builder.
type sessionTap struct {
	ring *Ring
	bld  *builder
}

// Learner is the continual-learning subsystem. Create with NewLearner, wire
// into a serve.Engine via serve.Config.Online, then Start. All exported
// methods are safe for concurrent use.
type Learner struct {
	cfg   Config
	store *Store

	// classes is the serving-class table, in pipeline order: the teacher row
	// always, then the student and dart rows when those tiers are configured.
	// Immutable once NewLearner returns.
	classes []*Class

	tapMu sync.Mutex
	taps  map[string]*sessionTap

	// trainMu guards the shadow model, its trainer, and the loss trend —
	// shared between the background loop and forced Swap/Rollback calls.
	trainMu    sync.Mutex
	shadow     nn.Layer
	tr         *nn.Trainer
	rng        *rand.Rand
	loss       lossTrend
	lastPub    time.Time
	stepsAtPub uint64

	// Distilled-student tier; all nil/zero unless cfg.Student is set.
	// Guarded by trainMu like the teacher shadow. The frozen KD source is the
	// published teacher itself: its Forward stores nothing, so distillation
	// shares it with the serving batcher.
	studentStore *Store
	student      nn.Layer // student shadow being distilled
	sopt         nn.Optimizer
	distLoss     lossTrend
	lastStuPub   time.Time
	distAtPub    uint64

	distSteps        atomic.Uint64
	distilled        atomic.Uint64
	studentPublished atomic.Uint64

	// Dart (tabularized) tier; all nil/zero unless cfg.Dart is set. tabMu
	// serialises tabularization cycles (the loop's duty cycle vs a forced
	// SwapDart from the wire) and guards the source/cadence fields below;
	// lock order is tabMu before trainMu, never the reverse.
	dartStore     *TableStore
	tabMu         sync.Mutex
	dartSrc       *Model // published student the last candidate was built from
	dartSrcVer    uint64 // student version the published table derives from
	lastSkipVer   uint64 // student version whose skip was already counted
	lastTab       time.Time
	dartCost      atomic.Pointer[tabular.Cost] // analytic cost of the published hierarchy
	tabularized   atomic.Uint64
	dartPublished atomic.Uint64
	tabAttempts   atomic.Uint64 // duty cycles that found work to consider
	tabSkips      atomic.Uint64 // cycles skipped (unchanged or below-delta student)
	tabNs         atomic.Int64

	// Promotion policy engine; nil when Config.Policy is nil (the legacy
	// unconditional publish path). evalRng feeds the gate's shadow-batch
	// sampling and is deliberately separate from rng so admission evaluation
	// never perturbs the training stream (pinned by regression test).
	pol     *Policy
	evalRng *rand.Rand

	// buf is the example reservoir. Guarded by trainMu: the loop goroutine
	// writes it (drainAll) and samples it (optimizer steps), but forced
	// SwapDart tabularizations snapshot it from wire-server goroutines
	// (fitSnapshot).
	buf   []example
	bufW  int
	bufN  int
	fresh int // examples added since the last optimizer step

	ingested      atomic.Uint64
	detachedDrops atomic.Uint64
	useful        atomic.Uint64
	late          atomic.Uint64
	assembled     atomic.Uint64
	trained       atomic.Uint64
	steps         atomic.Uint64
	published     atomic.Uint64

	start   time.Time
	trainNs atomic.Int64 // cumulative time inside optimizer steps

	quit chan struct{}
	done chan struct{}
	once sync.Once
}

// NewLearner builds a learner. When cfg.Dir holds a valid checkpoint, the
// newest good version is recovered as both the serving model and the shadow
// (continual learning across restarts); otherwise the shadow starts from
// cfg.Init (when given) or cfg.New's initialisation, and is published as
// version 1 so the serving path always has a model to load.
func NewLearner(cfg Config) (*Learner, error) {
	cfg = cfg.withDefaults()
	if cfg.New == nil {
		return nil, fmt.Errorf("online: Config.New architecture factory is required")
	}
	if err := cfg.Data.Validate(); err != nil {
		return nil, err
	}
	if cfg.Student != nil {
		if math.IsNaN(cfg.Distill.Lambda) {
			cfg.Distill.Lambda = kd.DefaultConfig().Lambda
		}
		if math.IsNaN(cfg.Distill.Temperature) {
			cfg.Distill.Temperature = kd.DefaultConfig().Temperature
		}
		if cfg.Distill.Lambda < 0 || cfg.Distill.Lambda > 1 {
			return nil, fmt.Errorf("online: Distill.Lambda %v outside [0, 1]", cfg.Distill.Lambda)
		}
		if cfg.Distill.Temperature <= 0 {
			return nil, fmt.Errorf("online: Distill.Temperature %v must be positive", cfg.Distill.Temperature)
		}
	}
	store, err := NewStore(cfg.New, cfg.Dir)
	if err != nil {
		return nil, err
	}
	l := &Learner{
		cfg:   cfg,
		store: store,
		taps:  make(map[string]*sessionTap),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		buf:   make([]example, cfg.BufferCap),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	teacher := l.addClass(&Class{
		name: TeacherClass, prefetcher: "online", store: store, hist: store.c,
		published: &l.published,
		cost:      func() (int, int) { return cfg.Latency, cfg.StorageBytes },
		infer:     store.infer,
		publish:   l.locked(l.publishLocked),
		revert: func() (uint64, error) {
			return l.revertNN(store, l.shadow, func() {
				l.tr = nn.NewTrainer(l.shadow, nn.NewAdam(cfg.LR), cfg.BatchSize, l.rng)
			})
		},
	})
	l.shadow = cfg.New()
	if m := store.Load(); m != nil {
		if err := nn.CopyParams(l.shadow, m.Net); err != nil {
			return nil, fmt.Errorf("online: recovered checkpoint: %w", err)
		}
	} else {
		if cfg.Init != nil {
			if err := nn.CopyParams(l.shadow, cfg.Init); err != nil {
				return nil, fmt.Errorf("online: warm start: %w", err)
			}
		}
		if _, err := l.publishLocked(); err != nil {
			return nil, err
		}
	}
	l.tr = nn.NewTrainer(l.shadow, nn.NewAdam(cfg.LR), cfg.BatchSize, l.rng)
	if cfg.Student != nil {
		if err := l.initStudent(teacher); err != nil {
			return nil, err
		}
	}
	if cfg.Dart {
		if err := l.initDart(); err != nil {
			return nil, err
		}
	}
	if cfg.Policy != nil {
		if err := cfg.Policy.Validate(); err != nil {
			return nil, err
		}
		// Every class with a source is gated against it; the teacher has
		// none, so its publishes are ungated.
		derived := l.classes[1:]
		names := make([]string, len(derived))
		for i, c := range derived {
			names[i] = c.name
		}
		l.pol = NewPolicy(*cfg.Policy, names...)
		for _, c := range derived {
			l.pol.RegisterRollback(c.name, c.revert)
		}
		l.evalRng = rand.New(rand.NewSource(cfg.Seed ^ 0x5eed9e3779b97f4a))
	}
	l.lastPub = time.Now()
	l.lastStuPub = time.Now()
	l.start = time.Now()
	return l, nil
}

// initDart wires the tabularized serving class and its table store
// (recovering the newest good table checkpoint when one exists); the
// tabularizer reads the published student. No table is published at construction
// when the store starts empty — tabularization needs streamed examples to
// fit kernels on, so the serve side falls back to the student until the
// first duty cycle (or a forced Swap) publishes one.
func (l *Learner) initDart() error {
	student, err := l.Class(StudentClass)
	if err != nil {
		return fmt.Errorf("online: the dart tier re-tabularizes the published student; Config.Dart requires Config.Student")
	}
	net := student.Store().Load().Net
	if _, ok := net.(*nn.Sequential); !ok {
		return fmt.Errorf("online: tabularization needs an *nn.Sequential student architecture, got %T", net)
	}
	store, err := NewTableStore(l.cfg.Dir, DartClass)
	if err != nil {
		return err
	}
	l.dartStore = store
	l.addClass(&Class{
		name: DartClass, prefetcher: "dart", source: student, tables: store, hist: store.c,
		published: &l.dartPublished,
		cost:      l.dartCostNow,
		infer:     store.infer,
		publish: func() (uint64, error) {
			l.tabMu.Lock()
			defer l.tabMu.Unlock()
			return l.tabularizeLocked(false)
		},
		revert: l.revertDart,
	})
	if t := store.Load(); t != nil {
		c := t.H.Cost()
		l.dartCost.Store(&c)
		// The recovered table remembers which student version it derives
		// from, so the duty cycle does not rebuild an unchanged table right
		// after a restart.
		l.dartSrcVer = t.Meta.Source
	}
	l.lastTab = time.Now()
	return nil
}

// initStudent wires the distilled-student tier: its class store (recovering
// the newest good student checkpoint when one exists), the student shadow,
// and its own optimizer.
func (l *Learner) initStudent(teacher *Class) error {
	store, err := NewClassStore(l.cfg.Student, l.cfg.Dir, StudentClass)
	if err != nil {
		return err
	}
	l.studentStore = store
	l.addClass(&Class{
		name: StudentClass, prefetcher: "student", source: teacher, store: store, hist: store.c,
		published: &l.studentPublished,
		cost:      func() (int, int) { return l.cfg.StudentLatency, l.cfg.StudentStorageBytes },
		infer:     store.infer,
		publish:   l.locked(l.publishStudentLocked),
		revert: func() (uint64, error) {
			return l.revertNN(store, l.student, func() { l.sopt = nn.NewAdam(l.distillLR()) })
		},
	})
	l.student = l.cfg.Student()
	if m := store.Load(); m != nil {
		if err := nn.CopyParams(l.student, m.Net); err != nil {
			return fmt.Errorf("online: recovered student checkpoint: %w", err)
		}
	} else {
		if l.cfg.StudentInit != nil {
			if err := nn.CopyParams(l.student, l.cfg.StudentInit); err != nil {
				return fmt.Errorf("online: student warm start: %w", err)
			}
		}
		if _, err := l.publishStudentLocked(); err != nil {
			return err
		}
	}
	l.sopt = nn.NewAdam(l.distillLR())
	return nil
}

// distillLR is the student optimizer's learning rate: Distill.LR, or the
// teacher's when unset.
func (l *Learner) distillLR() float64 {
	if lr := l.cfg.Distill.LR; lr != 0 {
		return lr
	}
	return l.cfg.LR
}

// addClass appends one row to the serving-class table.
func (l *Learner) addClass(c *Class) *Class {
	c.l = l
	l.classes = append(l.classes, c)
	return c
}

// locked runs a trainer-state step under trainMu, for the forced verbs that
// arrive from outside the loop goroutine.
func (l *Learner) locked(step func() (uint64, error)) func() (uint64, error) {
	return func() (uint64, error) {
		l.trainMu.Lock()
		defer l.trainMu.Unlock()
		return step()
	}
}

// Data returns the input/label construction config sessions must share.
func (l *Learner) Data() dataprep.Config { return l.cfg.Data }

// Policy returns the promotion policy engine, or nil when disabled. The
// serving engine feeds its shadow-compared batches into it (ObserveLive) and
// the `policy` wire verb reads its decision log.
func (l *Learner) Policy() *Policy { return l.pol }

// Classes lists the serving classes this learner runs, in pipeline order.
func (l *Learner) Classes() []*Class { return l.classes }

// Class looks a serving class up by name; "" selects the teacher, as on the
// wire. It fails for a tier this learner does not run.
func (l *Learner) Class(name string) (*Class, error) {
	if name == "" {
		name = TeacherClass
	}
	for _, c := range l.classes {
		if c.name == name {
			return c, nil
		}
	}
	have := make([]string, len(l.classes))
	for i, c := range l.classes {
		have[i] = c.name
	}
	return nil, fmt.Errorf("online: no %q serving class configured (have %s)", name, strings.Join(have, ", "))
}

// dartCostNow is the modelled cost of the dart prefetcher: the config
// override when set, else the analytic cost (Sec. V-C) of the published
// hierarchy, else the student's while no table exists yet.
func (l *Learner) dartCostNow() (latency, storageBytes int) {
	latency, storageBytes = l.cfg.StudentLatency, l.cfg.StudentStorageBytes
	if c := l.dartCost.Load(); c != nil {
		latency, storageBytes = c.LatencyCycles, c.StorageBytes()
	}
	if l.cfg.DartLatency > 0 {
		latency = l.cfg.DartLatency
	}
	if l.cfg.DartStorageBytes > 0 {
		storageBytes = l.cfg.DartStorageBytes
	}
	return latency, storageBytes
}

// Attach registers a session and returns the ring its actor pushes events
// into. The caller must Detach with the same id when the session closes.
func (l *Learner) Attach(id string) *Ring {
	t := &sessionTap{ring: NewRing(l.cfg.RingCap), bld: newBuilder(l.cfg.Data)}
	l.tapMu.Lock()
	l.taps[id] = t
	l.tapMu.Unlock()
	return t.ring
}

// Detach unregisters a session. Events still in its ring are abandoned —
// at session close there is nothing left worth a final training example.
func (l *Learner) Detach(id string) {
	l.tapMu.Lock()
	if t, ok := l.taps[id]; ok {
		l.detachedDrops.Add(t.ring.Dropped())
		delete(l.taps, id)
	}
	l.tapMu.Unlock()
}

// Start launches the background collector/trainer loop.
func (l *Learner) Start() {
	go l.loop()
}

// Stop terminates the loop, waits for it to finish, and publishes a final
// version when training advanced past the last published one — progress is
// never lost on a clean shutdown. Stop is idempotent.
func (l *Learner) Stop() {
	l.once.Do(func() {
		close(l.quit)
		<-l.done
		l.trainMu.Lock()
		defer l.trainMu.Unlock()
		if l.steps.Load() > l.stepsAtPub {
			_, _ = l.publishLocked() // best-effort final flush
		}
		if l.student != nil && l.distSteps.Load() > l.distAtPub {
			_, _ = l.publishStudentLocked()
		}
	})
}

// loop is the collector/trainer: drain rings, assemble examples, take
// duty-cycled optimizer steps, auto-publish on the swap interval.
func (l *Learner) loop() {
	defer close(l.done)
	tick := time.NewTicker(l.cfg.Tick)
	defer tick.Stop()
	for {
		select {
		case <-l.quit:
			l.drainAll() // pick up stragglers so Stop's final publish sees them
			return
		case <-tick.C:
			l.drainAll()
			l.maybeTrain()
			l.maybeTabularize()
		}
	}
}

// drainAll consumes every attached ring into the example reservoir. The
// reservoir is written under trainMu: it is sampled by optimizer steps on
// this goroutine, but also snapshotted by forced SwapDart tabularizations
// from wire-server goroutines.
func (l *Learner) drainAll() {
	l.tapMu.Lock()
	taps := make([]*sessionTap, 0, len(l.taps))
	for _, t := range l.taps {
		taps = append(taps, t)
	}
	l.tapMu.Unlock()
	l.trainMu.Lock()
	defer l.trainMu.Unlock()
	for _, t := range taps {
		t.ring.Drain(func(ev Event) {
			l.ingested.Add(1)
			if ev.HasFB {
				if ev.Feedback.Kind == sim.FeedbackUseful {
					l.useful.Add(1)
				} else {
					l.late.Add(1)
				}
			}
			t.bld.observe(ev.Access, l.addExample)
		})
	}
}

// addExample inserts into the overwrite-oldest reservoir.
func (l *Learner) addExample(ex example) {
	l.buf[l.bufW] = ex
	l.bufW = (l.bufW + 1) % len(l.buf)
	if l.bufN < len(l.buf) {
		l.bufN++
	}
	l.fresh++
	l.assembled.Add(1)
}

// maybeTrain takes one optimizer step when enough fresh examples arrived and
// the duty-cycle budget allows it.
func (l *Learner) maybeTrain() {
	if l.bufN < l.cfg.BatchSize || l.fresh == 0 {
		return
	}
	wall := time.Since(l.start)
	if float64(l.trainNs.Load()) > l.cfg.Duty*float64(wall.Nanoseconds()) {
		return // over budget: let serving breathe
	}
	l.trainMu.Lock()
	t0 := time.Now()
	l.trainStepLocked()
	if l.student != nil {
		l.distillStepLocked()
	}
	l.trainNs.Add(time.Since(t0).Nanoseconds())
	auto := l.cfg.SwapInterval > 0 &&
		time.Since(l.lastPub) >= l.cfg.SwapInterval &&
		l.steps.Load() > l.stepsAtPub
	if auto {
		v, err := l.publishLocked() // on failure serving keeps the previous version
		if err == nil && l.pol != nil {
			// The teacher has no source class to shadow-compare against, so
			// its publishes are ungated — but they still land in the decision
			// log so the `policy` verb covers every class publish.
			l.pol.record(Decision{
				Class: TeacherClass, Action: ActionAdmit, Version: v,
				Reason: "teacher: ungated (no source class)",
			})
		}
	}
	if l.student != nil &&
		l.cfg.DistillInterval > 0 &&
		time.Since(l.lastStuPub) >= l.cfg.DistillInterval &&
		l.distSteps.Load() > l.distAtPub {
		if l.pol == nil {
			_, _ = l.publishStudentLocked()
		} else {
			l.gateStudentLocked()
		}
	}
	l.trainMu.Unlock()
}

// trainStepLocked samples a minibatch from the reservoir and fine-tunes the
// shadow. Caller holds trainMu.
func (l *Learner) trainStepLocked() {
	b := l.cfg.BatchSize
	bx, by := l.sampleBatchLocked(l.rng)
	l.fresh = 0
	l.loss.observe(l.tr.TrainEpoch(bx, by, nn.BCEWithLogits))
	l.trained.Add(uint64(b))
	l.steps.Add(1)
}

// distillStepLocked takes one knowledge-distillation minibatch step on the
// student shadow: teacher logits come from the currently published teacher
// version, the combined soft+hard loss and its gradient from kd.Loss over the
// same reservoir the teacher fine-tunes on. Caller holds trainMu.
func (l *Learner) distillStepLocked() {
	b := l.cfg.BatchSize
	bx, by := l.sampleBatchLocked(l.rng)
	teacherLogits := l.store.Load().Net.Forward(bx)
	studentLogits, back := l.student.Train(bx)
	loss, grad := kd.Loss(studentLogits, teacherLogits, by,
		l.cfg.Distill.Lambda, l.cfg.Distill.Temperature)
	back(grad)
	l.sopt.Step(l.student.Params())
	l.distLoss.observe(loss)
	l.distilled.Add(uint64(b))
	l.distSteps.Add(1)
}

// publishLocked snapshots the shadow into the store. Caller holds trainMu
// (or is the NewLearner constructor, before any concurrency exists).
func (l *Learner) publishLocked() (uint64, error) {
	m, err := l.store.Publish(l.shadow, nn.CheckpointMeta{
		Examples: l.assembled.Load(),
		Steps:    l.steps.Load(),
		Loss:     l.loss.fast,
	})
	if err != nil {
		return 0, err
	}
	l.published.Add(1)
	l.stepsAtPub = l.steps.Load()
	l.lastPub = time.Now()
	return m.Version, nil
}

// publishStudentLocked snapshots the student shadow into the student class
// store. Caller holds trainMu (or is the constructor).
func (l *Learner) publishStudentLocked() (uint64, error) {
	m, err := l.studentStore.Publish(l.student, nn.CheckpointMeta{
		Examples: l.distilled.Load(),
		Steps:    l.distSteps.Load(),
		Loss:     l.distLoss.fast,
	})
	if err != nil {
		return 0, err
	}
	l.studentPublished.Add(1)
	l.distAtPub = l.distSteps.Load()
	l.lastStuPub = time.Now()
	return m.Version, nil
}

// sampleBatchLocked draws one minibatch of inputs and labels from the
// reservoir. The optimizer steps draw with the training RNG; the admission
// gate's shadow-evaluation batches draw with its dedicated evalRng — never
// the training RNG, so admission evaluation cannot perturb the training
// stream. Caller holds trainMu.
func (l *Learner) sampleBatchLocked(rng *rand.Rand) (bx, by *mat.Tensor) {
	b := l.cfg.BatchSize
	bx = mat.NewTensor(b, l.cfg.Data.History, l.cfg.Data.InputDim())
	by = mat.NewTensor(b, 1, l.cfg.Data.OutputDim())
	for i := 0; i < b; i++ {
		ex := l.buf[rng.Intn(l.bufN)]
		copy(bx.Sample(i).Data, ex.x)
		copy(by.Sample(i).Data, ex.y)
	}
	return bx, by
}

// gateStudentLocked advances the student candidate's admission window by one
// shadow batch — candidate = the current student shadow, source = the
// published teacher — and decides admit/hold when the window
// fills. A hold re-stamps the duty-cycle cadence, so the held candidate
// keeps distilling for a full DistillInterval before the next attempt.
// Caller holds trainMu.
func (l *Learner) gateStudentLocked() {
	if l.bufN < l.cfg.BatchSize {
		return
	}
	bx, _ := l.sampleBatchLocked(l.evalRng)
	match, total := Agreement(l.student.Forward(bx), l.store.Load().Net.Forward(bx))
	if !l.pol.observeCandidate(StudentClass, match, total) {
		return // window not full: more shadow batches on later ticks
	}
	d, admit := l.pol.decide(Decision{
		Class: StudentClass, LatencyCycles: l.cfg.StudentLatency, StorageBytes: l.cfg.StudentStorageBytes,
	})
	if !admit {
		l.pol.record(d)
		l.lastStuPub = time.Now()
		return
	}
	v, err := l.publishStudentLocked()
	if err != nil {
		return // serving keeps the previous version; evidence already reset
	}
	d.Version = v
	l.pol.record(d)
}

// maybeTabularize is the dart tier's duty cycle, run on the loop goroutine
// after training: when the tabularize interval has elapsed and the published
// student has changed since the serving table was built, re-tabularize and
// publish. Tabularization is deliberately run outside trainMu — it is the
// most expensive background step by far, and holding the training lock for
// its duration would stall forced Swap/Rollback verbs; only the brief fit-
// snapshot inside tabularizeLocked touches trainer state.
func (l *Learner) maybeTabularize() {
	if l.dartStore == nil || l.cfg.TabularizeInterval <= 0 {
		return
	}
	l.tabMu.Lock()
	defer l.tabMu.Unlock()
	if time.Since(l.lastTab) < l.cfg.TabularizeInterval {
		return
	}
	sm := l.studentStore.Load()
	// Student unchanged: the table would come out identical-ish.
	unchanged := sm.Version == l.dartSrcVer
	// Incremental re-tabularization: when the policy engine is configured
	// with a minimum source delta, a student version whose parameters moved
	// less than that (relative L2, cumulative since the last candidate's
	// source) is not worth the most expensive background step in the system.
	delta := math.Inf(1)
	if !unchanged && l.pol != nil && l.pol.cfg.MinSourceDelta > 0 && l.dartSrc != nil {
		delta = paramDelta(sm.Net, l.dartSrc.Net)
	}
	if !unchanged && (l.pol == nil || delta >= l.pol.cfg.MinSourceDelta) {
		_, _ = l.tabularizeLocked(l.pol != nil) // on failure serving keeps the previous table
		return
	}
	// Count the skipped attempt once per idle period (the cadence stamp
	// stays put so a fresh student publish fires on the next tick) so
	// operators can tell an idle tabularizer from a stuck one.
	if sm.Version == l.lastSkipVer {
		return
	}
	l.tabAttempts.Add(1)
	l.tabSkips.Add(1)
	l.lastSkipVer = sm.Version
	if l.pol != nil {
		reason := fmt.Sprintf("student v%d unchanged since last build", sm.Version)
		if !unchanged {
			reason = fmt.Sprintf("student v%d param delta %.4f < %.4f: rebuild not worth it",
				sm.Version, delta, l.pol.cfg.MinSourceDelta)
		}
		l.pol.record(Decision{Class: DartClass, Action: ActionSkip, Reason: reason})
	}
}

// fitSnapshot copies the newest DartSamples reservoir examples into a
// kernel-fitting tensor (insertion order, deterministic) and reads the
// distillation-loss EWMA, all under one trainMu critical section — the only
// part of a tabularization cycle that touches trainer state.
func (l *Learner) fitSnapshot() (*mat.Tensor, float64, error) {
	l.trainMu.Lock()
	defer l.trainMu.Unlock()
	if l.bufN < l.cfg.BatchSize {
		return nil, 0, fmt.Errorf("online: not enough examples to tabularize (%d, need %d)", l.bufN, l.cfg.BatchSize)
	}
	n := l.cfg.DartSamples
	if n > l.bufN {
		n = l.bufN
	}
	fit := mat.NewTensor(n, l.cfg.Data.History, l.cfg.Data.InputDim())
	start := (l.bufW - n + len(l.buf)) % len(l.buf)
	for i := 0; i < n; i++ {
		copy(fit.Sample(i).Data, l.buf[(start+i)%len(l.buf)].x)
	}
	return fit, l.distLoss.fast, nil
}

// gateDartEvidence evaluates a candidate hierarchy against its source — the
// published student it was tabularized from — over AdmitWindow shadow
// batches drawn from the reservoir, filling the class's admission window.
// Caller holds tabMu; trainMu is taken briefly per batch to sample inputs.
func (l *Learner) gateDartEvidence(h *tabular.Hierarchy, src nn.Layer) {
	for {
		l.trainMu.Lock()
		if l.bufN < l.cfg.BatchSize {
			l.trainMu.Unlock()
			break
		}
		bx, _ := l.sampleBatchLocked(l.evalRng)
		l.trainMu.Unlock()
		match, total := Agreement(h.QueryBatch(bx), src.Forward(bx))
		if l.pol.observeCandidate(DartClass, match, total) {
			break
		}
	}
}

// tabularizeLocked runs one tabularization cycle: run tabular.Tabularize on
// the published student over the freshest reservoir examples, and publish
// the resulting hierarchy as the next dart version.
// With gated set (the policy engine owns this duty cycle), the candidate
// must clear the admission gate — agreement with the source student over the
// shadow-batch window, and the class budget against its analytic cost —
// before it publishes; a held candidate is dropped and the next interval
// builds a fresh one. Caller holds tabMu.
func (l *Learner) tabularizeLocked(gated bool) (uint64, error) {
	fit, loss, err := l.fitSnapshot()
	if err != nil {
		return 0, err
	}
	l.tabAttempts.Add(1)
	// Stamp the cadence before the expensive work, not after a successful
	// publish: if tabularization or the checkpoint write fails (disk full,
	// permissions), the duty cycle must wait out a full interval before
	// retrying rather than re-running the most expensive background step on
	// every 2ms tick. The cheap not-enough-examples failure above retries
	// freely.
	l.lastTab = time.Now()
	sm := l.studentStore.Load()
	l.dartSrc = sm
	t0 := time.Now()
	res := tabular.Tabularize(sm.Net.(*nn.Sequential), fit, l.cfg.Tabular)
	l.tabNs.Add(time.Since(t0).Nanoseconds())
	l.tabularized.Add(1)
	cost := res.Hierarchy.Cost()
	var admit Decision
	if gated {
		l.gateDartEvidence(res.Hierarchy, sm.Net)
		var ok bool
		admit, ok = l.pol.decide(Decision{
			Class: DartClass, Cosine: meanCosine(res.Cosine),
			LatencyCycles: cost.LatencyCycles, StorageBytes: cost.StorageBytes(),
		})
		if !ok {
			l.pol.record(admit)
			return 0, fmt.Errorf("online: dart candidate held: %s", admit.Reason)
		}
	}
	tab, err := l.dartStore.Publish(res.Hierarchy, nn.CheckpointMeta{
		Source:   sm.Version, // the student version the table derives from
		Examples: uint64(fit.N),
		Steps:    l.distSteps.Load(),
		Loss:     loss,
	})
	if err != nil {
		return 0, err
	}
	l.dartCost.Store(&cost)
	l.dartPublished.Add(1)
	l.dartSrcVer = sm.Version
	if gated {
		admit.Version = tab.Version
		l.pol.record(admit)
	}
	return tab.Version, nil
}

// revertDart rolls the served table back one version. There is no shadow to
// reset — tables are derived artifacts — but the rolled-back source version
// is forgotten so the next duty cycle rebuilds from the current student
// instead of skipping as "unchanged".
func (l *Learner) revertDart() (uint64, error) {
	l.tabMu.Lock()
	defer l.tabMu.Unlock()
	t, err := l.dartStore.Rollback()
	if err != nil {
		return 0, err
	}
	cost := t.H.Cost()
	l.dartCost.Store(&cost)
	l.dartSrcVer = 0
	return t.Version, nil
}

// revertNN rolls an nn class back one version and resets its training
// shadow to those weights and (through resetOpt) its optimizer state, so
// training continues from the rolled-back point rather than republishing the
// bad weights.
func (l *Learner) revertNN(store *Store, shadow nn.Layer, resetOpt func()) (uint64, error) {
	l.trainMu.Lock()
	defer l.trainMu.Unlock()
	m, err := store.Rollback()
	if err != nil {
		return 0, err
	}
	if err := nn.CopyParams(shadow, m.Net); err != nil {
		return 0, fmt.Errorf("online: rollback: %w", err)
	}
	resetOpt()
	return m.Version, nil
}

// Swap, SwapStudent and SwapDart force-publish one class; they are kept as
// named forwarders to Class.Swap for callers compiled against them.
func (l *Learner) Swap() (uint64, error)        { return l.forceSwap(TeacherClass) }
func (l *Learner) SwapStudent() (uint64, error) { return l.forceSwap(StudentClass) }
func (l *Learner) SwapDart() (uint64, error)    { return l.forceSwap(DartClass) }

func (l *Learner) forceSwap(name string) (uint64, error) {
	c, err := l.Class(name)
	if err != nil {
		return 0, err
	}
	return c.Swap()
}

// Stats is a point-in-time snapshot of the learner. The JSON form is the
// wire protocol's "online" object (docs/PROTOCOL.md); the per-tier fields are
// omitted while zero, i.e. for a tier the learner does not run.
type Stats struct {
	Version   uint64  `json:"version"`          // currently served model version
	Published uint64  `json:"published"`        // versions published since start
	Sessions  int     `json:"sessions"`         // attached sessions
	Ingested  uint64  `json:"ingested"`         // events consumed from session rings
	Dropped   uint64  `json:"dropped"`          // events lost to full rings
	Useful    uint64  `json:"useful"`           // FeedbackUseful events seen
	Late      uint64  `json:"late"`             // FeedbackLate events seen
	Examples  uint64  `json:"examples"`         // training examples assembled
	Trained   uint64  `json:"trained"`          // examples consumed by optimizer steps
	Steps     uint64  `json:"steps"`            // optimizer steps taken
	Loss      float64 `json:"loss"`             // online loss EWMA (fast horizon)
	LossTrend float64 `json:"loss_trend"`       // fast minus slow EWMA; negative = improving
	PerSec    float64 `json:"feedback_per_sec"` // feedback-event ingest throughput since start

	// Distilled-student tier; all zero when the tier is disabled.
	StudentVersion   uint64  `json:"student_version,omitempty"`   // currently served student version
	StudentPublished uint64  `json:"student_published,omitempty"` // student versions published since start
	Distilled        uint64  `json:"distilled,omitempty"`         // examples consumed by distillation steps
	DistillSteps     uint64  `json:"distill_steps,omitempty"`     // distillation optimizer steps taken
	DistillLoss      float64 `json:"distill_loss,omitempty"`      // combined KD+BCE loss EWMA (fast horizon)
	DistillTrend     float64 `json:"distill_trend,omitempty"`     // fast minus slow EWMA; negative = improving

	// Dart (tabularized) tier; all zero when the tier is disabled.
	DartVersion   uint64  `json:"dart_version,omitempty"`   // currently served table version (0 until the first publish)
	DartPublished uint64  `json:"dart_published,omitempty"` // table versions published since start
	Tabularized   uint64  `json:"tabularized,omitempty"`    // tabularization cycles run (candidates actually built)
	DartAttempts  uint64  `json:"dart_attempts,omitempty"`  // duty cycles that considered work: builds + counted skips
	DartSkips     uint64  `json:"dart_skips,omitempty"`     // cycles skipped for an unchanged or below-delta student
	TabularizeMs  float64 `json:"tabularize_ms,omitempty"`  // cumulative wall time spent tabularizing, milliseconds
}

// Stats snapshots the learner's counters.
func (l *Learner) Stats() Stats {
	st := Stats{
		Published: l.published.Load(),
		Ingested:  l.ingested.Load(),
		Useful:    l.useful.Load(),
		Late:      l.late.Load(),
		Examples:  l.assembled.Load(),
		Trained:   l.trained.Load(),
		Steps:     l.steps.Load(),
	}
	if m := l.store.Load(); m != nil {
		st.Version = m.Version
	}
	st.Dropped = l.detachedDrops.Load()
	l.tapMu.Lock()
	st.Sessions = len(l.taps)
	for _, t := range l.taps {
		st.Dropped += t.ring.Dropped()
	}
	l.tapMu.Unlock()
	if l.studentStore != nil {
		st.StudentPublished = l.studentPublished.Load()
		st.Distilled = l.distilled.Load()
		st.DistillSteps = l.distSteps.Load()
		if m := l.studentStore.Load(); m != nil {
			st.StudentVersion = m.Version
		}
	}
	if l.dartStore != nil {
		st.DartPublished = l.dartPublished.Load()
		st.Tabularized = l.tabularized.Load()
		st.DartAttempts = l.tabAttempts.Load()
		st.DartSkips = l.tabSkips.Load()
		st.TabularizeMs = float64(l.tabNs.Load()) / 1e6
		if t := l.dartStore.Load(); t != nil {
			st.DartVersion = t.Version
		}
	}
	l.trainMu.Lock()
	st.Loss, st.LossTrend = l.loss.fast, l.loss.fast-l.loss.slow
	st.DistillLoss, st.DistillTrend = l.distLoss.fast, l.distLoss.fast-l.distLoss.slow
	l.trainMu.Unlock()
	if el := time.Since(l.start).Seconds(); el > 0 {
		st.PerSec = float64(st.Ingested) / el
	}
	return st
}
