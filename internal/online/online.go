// Package online closes the feedback→train→publish→swap loop around the
// serving engine: a background continual-learning subsystem that turns the
// demand-access stream of live serve sessions into training minibatches,
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
//	                      Store[P]: atomic.Pointer[Published[P]] + CRC checkpoints
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
	"dart/internal/tabular"
)

// The example reservoir (overwrite-oldest) and each session's event ring
// hold this many entries.
const (
	bufferCap = 4096
	ringCap   = 4096
)

// Config tunes the learner. Zero values select sensible defaults.
type Config struct {
	Data dataprep.Config // input/label construction (must match serving sessions)
	New  func() nn.Layer // architecture factory; every call must produce identical shapes
	Init nn.Layer        // optional warm start; params copied when no checkpoint is recovered
	Dir  string          // checkpoint directory ("" = in-memory only)

	BatchSize    int           // minibatch size (default 32)
	LR           float64       // Adam learning rate (default 1e-3)
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
	Student func() nn.Layer

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

// DefaultTabularConfig is the dart tier's serving tabularization default,
// used when Config.Dart is set without an explicit Config.Tabular: an LSH
// encoder (the O(log K) lookup the paper's latency model assumes) with
// small tables — the measured latency-optimal serving point, and the exact
// configuration BenchmarkDartInfer gates ("tables strictly faster than the
// student") in CI. dart-train's offline dart checkpoints use it too, so
// offline-published tables behave like the daemon's duty-cycle output.
func DefaultTabularConfig() tabular.Config {
	return tabular.Config{
		Kernel: tabular.KernelConfig{K: 8, C: 1, Kind: tabular.EncoderLSH},
		Seed:   7,
	}
}

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.LR == 0 {
		c.LR = 1e-3
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
	cfg Config

	// classes is the serving-class table, in pipeline order: the teacher row
	// always, then the student and dart rows when those tiers are configured.
	// Immutable once NewLearner returns.
	classes []*Class

	tapMu sync.Mutex
	taps  map[string]*sessionTap

	// trainMu guards the trained stages, the training RNG and the example
	// reservoir — shared between the background loop and forced Swap/Rollback
	// calls. A built stage has its own lock, taken before trainMu, never
	// after.
	trainMu sync.Mutex
	stages  []*stage // one per class, in pipeline order; immutable slice
	rng     *rand.Rand

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

	start   time.Time
	trainNs atomic.Int64 // cumulative time inside optimizer steps

	started atomic.Bool
	quit    chan struct{}
	done    chan struct{}
	once    sync.Once
}

// stage makes the versions of one class row. A trained stage (the teacher,
// fine-tuned on the reservoir's labels, or the student, distilled from its
// source's published network) steps a shadow network every tick and offers
// snapshots of it; a built stage (dart) tabularizes each candidate from its
// source's published network. Only that kind selects behaviour: every stage
// shares one cadence, gate, publish, rollback and stats path.
type stage struct {
	class    *Class
	interval time.Duration // auto-publish cadence; <= 0 disables

	// mu guards the fields up to the counters: trainMu for a trained stage,
	// its own lock for a built one, so a build never stalls the nn verbs.
	mu      *sync.Mutex
	lastPub time.Time // cadence stamp: the last publish or hold, or a build's start

	// Trained stages.
	shadow     nn.Layer // the network being trained; publishes snapshot it
	opt        nn.Optimizer
	lr         float64 // opt's learning rate; a rollback restarts opt at it
	loss       lossTrend
	stepsAtPub uint64

	// Built stages.
	builtFrom *Published[nn.Layer] // source version the last candidate was built from
	srcVer    uint64               // source version the published version derives from
	skipVer   uint64               // source version whose skip was already counted

	steps    atomic.Uint64 // candidates made: optimizer steps, or builds
	examples atomic.Uint64 // examples the optimizer steps consumed
	skips    atomic.Uint64 // built: due turns skipped for an unchanged or below-delta source
	buildNs  atomic.Int64  // built: cumulative build time
}

// trained reports the stage's kind: true for a shadow stepped every tick,
// false for candidates built from the source's published network.
func (s *stage) trained() bool { return s.shadow != nil }

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
	l := &Learner{
		cfg:  cfg,
		taps: make(map[string]*sessionTap),
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		buf:  make([]example, bufferCap),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	teacher := &Class{
		name: TeacherClass, prefetcher: "online",
		cost: func() (int, int) { return cfg.Latency, cfg.StorageBytes },
	}
	if err := l.addStage(teacher, "", &stage{lr: cfg.LR, interval: cfg.SwapInterval}, cfg.New, cfg.Init); err != nil {
		return nil, err
	}
	if cfg.Student != nil {
		lr := cfg.Distill.LR
		if lr == 0 {
			lr = cfg.LR
		}
		if err := l.addStage(&Class{
			name: StudentClass, prefetcher: "student", source: teacher,
			cost: func() (int, int) { return cfg.StudentLatency, cfg.StudentStorageBytes },
		}, StudentClass, &stage{lr: lr, interval: cfg.DistillInterval}, cfg.Student, nil); err != nil {
			return nil, err
		}
	}
	if cfg.Dart {
		if cfg.Student == nil {
			return nil, fmt.Errorf("online: the dart tier re-tabularizes the published student; Config.Dart requires Config.Student")
		}
		if err := l.addStage(&Class{name: DartClass, prefetcher: "dart", source: l.classes[1]},
			DartClass, &stage{interval: cfg.TabularizeInterval}, nil, nil); err != nil {
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
	l.start = time.Now()
	return l, nil
}

// addStage appends one pipeline row: class c and the stage s that makes its
// versions, over a store under storeClass that recovers the newest good
// checkpoint in Dir. A trained stage (arch set) starts its shadow from the
// recovered weights, else from init's, else from arch's initialisation, and
// in the last two cases publishes it as version 1. A built stage publishes
// nothing until its first build, which needs streamed examples to fit
// kernels on (serving falls back to the source meanwhile); a recovered table
// restores the source version it derives from, so an unchanged source is not
// rebuilt right after a restart.
func (l *Learner) addStage(c *Class, storeClass string, s *stage, arch func() nn.Layer, init nn.Layer) error {
	s.class, c.l = c, l
	c.publish = func() (uint64, error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		cand, err := l.candidate(s)
		if err != nil {
			return 0, err
		}
		return cand.publish()
	}
	c.revert = func() (uint64, error) { return l.revertStage(s) }
	l.classes = append(l.classes, c)
	l.stages = append(l.stages, s)
	s.lastPub = time.Now()
	if arch == nil {
		net := c.source.store.Load().Val
		if _, ok := net.(*nn.Sequential); !ok {
			return fmt.Errorf("online: tabularization needs an *nn.Sequential %s architecture, got %T", c.source.name, net)
		}
		store, err := NewTableStore(l.cfg.Dir, storeClass)
		if err != nil {
			return err
		}
		c.tables, c.hist, s.mu = store, store, new(sync.Mutex)
		c.cost = func() (int, int) {
			if t := store.Load(); t != nil {
				cost := t.Val.Cost()
				return cost.LatencyCycles, cost.StorageBytes()
			}
			return c.source.Cost()
		}
		if t := store.Load(); t != nil {
			s.srcVer = t.Meta.Source
		}
		return nil
	}
	store, err := NewModelStore(arch, l.cfg.Dir, storeClass)
	if err != nil {
		return err
	}
	c.store, c.hist = store, store
	s.mu, s.shadow, s.opt = &l.trainMu, arch(), nn.NewAdam(s.lr)
	if m := store.Load(); m != nil {
		if err := nn.CopyParams(s.shadow, m.Val); err != nil {
			return fmt.Errorf("online: recovered %s checkpoint: %w", c.name, err)
		}
		return nil
	}
	if init != nil {
		if err := nn.CopyParams(s.shadow, init); err != nil {
			return fmt.Errorf("online: %s warm start: %w", c.name, err)
		}
	}
	_, err = s.publish()
	return err
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

// Attach registers a session and returns the ring its actor pushes events
// into. The caller must Detach with the same id when the session closes.
func (l *Learner) Attach(id string) *Ring {
	t := &sessionTap{ring: NewRing(ringCap), bld: newBuilder(l.cfg.Data)}
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
	l.started.Store(true)
	go l.loop()
}

// Stop terminates the loop (when Start ran), drains the stragglers still in
// the session rings, and flushes every trained stage whose shadow moved past
// its last published version — progress is never lost on a clean shutdown.
// Under the promotion policy only stages with no source flush; a derived
// stage's candidate was never admitted, so it is left unpublished and the
// decision log says why. A built stage holds no candidate between turns.
// Stop is idempotent.
func (l *Learner) Stop() {
	l.once.Do(func() {
		close(l.quit)
		if l.started.Load() {
			<-l.done
		}
		l.drainAll()
		l.trainMu.Lock()
		defer l.trainMu.Unlock()
		for _, s := range l.stages {
			switch {
			case !s.trained() || s.steps.Load() == s.stepsAtPub:
			case l.pol != nil && s.class.source != nil:
				l.pol.record(Decision{Class: s.class.name, Action: ActionSkip, Reason: fmt.Sprintf(
					"shutdown: candidate trained %d steps past v%d was not admitted; not flushed",
					s.steps.Load()-s.stepsAtPub, s.class.Version())})
			default:
				_, _ = l.offer(s) // on failure serving keeps the previous version
			}
		}
	})
}

// loop is the collector/trainer: drain rings, assemble examples, take
// duty-cycled optimizer steps, then give every stage its turn.
func (l *Learner) loop() {
	defer close(l.done)
	tick := time.NewTicker(l.cfg.Tick)
	defer tick.Stop()
	for {
		select {
		case <-l.quit:
			return
		case <-tick.C:
			l.drainAll()
			l.maybeTrain()
			l.turns(false)
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
			if ev.Useful {
				l.useful.Add(1)
			}
			if ev.Late {
				l.late.Add(1)
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

// maybeTrain takes one optimizer step per trained stage, in pipeline order,
// when enough fresh examples arrived and the duty-cycle budget allows it,
// then gives those stages their turn: a trained stage's candidate changes
// only when it steps.
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
	l.trainLocked()
	l.trainNs.Add(time.Since(t0).Nanoseconds())
	l.trainMu.Unlock()
	l.turns(true)
}

// turns gives every trained, or every built, stage its turn, in pipeline
// order.
func (l *Learner) turns(trained bool) {
	for _, s := range l.stages {
		if s.trained() == trained {
			l.turn(s)
		}
	}
}

// trainLocked takes one minibatch step on every trained stage's shadow, in
// pipeline order, each on its own minibatch drawn from the reservoir with
// the training RNG. A stage with no source fine-tunes on the labels with
// nn.Trainer; a derived stage distills from its source class's currently
// published network, with the combined soft+hard loss and gradient of
// kd.Loss. Caller holds trainMu.
func (l *Learner) trainLocked() {
	b := l.cfg.BatchSize
	for _, s := range l.stages {
		if !s.trained() {
			continue
		}
		bx, by := l.sampleBatchLocked(l.rng)
		var loss float64
		if src := s.class.source; src == nil {
			loss = nn.NewTrainer(s.shadow, s.opt, b, l.rng).TrainEpoch(bx, by, nn.BCEWithLogits)
		} else {
			sourceLogits := src.store.Load().Val.Forward(bx)
			logits, back := s.shadow.Train(bx)
			var grad *mat.Tensor
			loss, grad = kd.Loss(logits, sourceLogits, by, l.cfg.Distill.Lambda, l.cfg.Distill.Temperature)
			back(grad)
			s.opt.Step(s.shadow.Params())
		}
		s.loss.observe(loss)
		s.examples.Add(uint64(b))
		s.steps.Add(1)
	}
	l.fresh = 0
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

// turn is one stage's turn of the duty cycle: once its interval has elapsed
// and it has something fresh, its candidate goes to offer.
func (l *Learner) turn(s *stage) {
	if s.interval <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if l.due(s) {
		_, _ = l.offer(s) // on failure serving keeps the previous version
	}
}

// due reports whether the stage's interval has elapsed with something fresh
// to offer: for a trained stage, steps past its last publish; for a built
// one, a source version it was not built from, which under the policy engine
// must also have moved at least MinSourceDelta (relative L2, since the last
// build's source) to be worth the most expensive background step in the
// system. An idle built turn counts one skip per source version (the cadence
// stamp stays put so a fresh source publish fires on the next tick), so
// operators can tell an idle tabularizer from a stuck one. Caller holds s.mu.
func (l *Learner) due(s *stage) bool {
	if time.Since(s.lastPub) < s.interval {
		return false
	}
	if s.trained() {
		return s.steps.Load() > s.stepsAtPub
	}
	src := s.class.source
	sm := src.store.Load()
	unchanged := sm.Version == s.srcVer
	delta := math.Inf(1)
	if !unchanged && l.pol != nil && l.pol.cfg.MinSourceDelta > 0 && s.builtFrom != nil {
		delta = paramDelta(sm.Val, s.builtFrom.Val)
	}
	if !unchanged && (l.pol == nil || delta >= l.pol.cfg.MinSourceDelta) {
		return true
	}
	if sm.Version == s.skipVer {
		return false
	}
	s.skips.Add(1)
	s.skipVer = sm.Version
	if l.pol != nil {
		reason := fmt.Sprintf("%s v%d unchanged since last build", src.name, sm.Version)
		if !unchanged {
			reason = fmt.Sprintf("%s v%d param delta %.4f < %.4f: rebuild not worth it",
				src.name, sm.Version, delta, l.pol.cfg.MinSourceDelta)
		}
		l.pol.record(Decision{Class: s.class.name, Action: ActionSkip, Reason: reason})
	}
	return false
}

// candidate is a fresh version a stage offers for publication: a trained
// stage's shadow as it stands, or a hierarchy just built from the source's
// published network.
type candidate struct {
	answer           func(bx *mat.Tensor) *mat.Tensor // its logits, for the gate
	source           nn.Layer                         // what the gate scores it against; nil for the teacher
	cosine           float64                          // built: mean per-layer tabularization fidelity
	latency, storage int                              // modelled cost, checked against the class budget
	publish          func() (uint64, error)
}

// candidate makes the stage's fresh candidate. A trained stage offers its
// shadow. A built stage runs tabular.Tabularize on the source's published
// network over the freshest reservoir examples; its candidate publishes as
// the next table version, stamped with the source version it derives from.
// Caller holds s.mu.
func (l *Learner) candidate(s *stage) (*candidate, error) {
	if s.trained() {
		cand := &candidate{answer: s.shadow.Forward, publish: s.publish}
		cand.latency, cand.storage = s.class.Cost()
		if src := s.class.source; src != nil {
			cand.source = src.store.Load().Val
		}
		return cand, nil
	}
	fit, err := l.fitSnapshot()
	if err != nil {
		return nil, err
	}
	// Stamp the cadence before the expensive work, not after a successful
	// publish: if tabularization or the checkpoint write fails (disk full,
	// permissions), the duty cycle must wait out a full interval before
	// retrying rather than re-running the most expensive background step on
	// every 2ms tick. The cheap not-enough-examples failure above retries
	// freely.
	s.lastPub = time.Now()
	sm := s.class.source.store.Load()
	s.builtFrom = sm
	t0 := time.Now()
	res := tabular.Tabularize(sm.Val.(*nn.Sequential), fit, l.cfg.Tabular)
	s.buildNs.Add(time.Since(t0).Nanoseconds())
	s.steps.Add(1)
	h := res.Hierarchy
	cost := h.Cost()
	return &candidate{
		answer: h.QueryBatch, source: sm.Val, cosine: meanCosine(res.Cosine),
		latency: cost.LatencyCycles, storage: cost.StorageBytes(),
		publish: func() (uint64, error) {
			tab, err := s.class.tables.Publish(h, nn.CheckpointMeta{
				Source:   sm.Version,
				Examples: uint64(fit.N),
				Steps:    sm.Meta.Steps,
				Loss:     sm.Meta.Loss,
			})
			if err != nil {
				return 0, err
			}
			s.class.published.Add(1)
			s.srcVer = sm.Version
			return tab.Version, nil
		},
	}, nil
}

// offer publishes the stage's fresh candidate: at once without the policy
// engine, and logged as ungated for a stage with no source to score against;
// otherwise only once the admission gate admits it against the class's
// agreement threshold and budget. A hold re-stamps the cadence, so the next
// attempt waits a full interval. Caller holds s.mu.
func (l *Learner) offer(s *stage) (uint64, error) {
	cand, err := l.candidate(s)
	if err != nil {
		return 0, err
	}
	c := s.class
	switch {
	case l.pol == nil:
		return cand.publish()
	case c.source == nil:
		v, err := cand.publish()
		if err == nil {
			l.pol.record(Decision{Class: c.name, Action: ActionAdmit, Version: v,
				Reason: c.name + ": ungated (no source class)"})
		}
		return v, err
	case !l.gate(s, cand):
		return 0, nil // window not full: more shadow batches on later turns
	}
	d, admit := l.pol.decide(Decision{Class: c.name, Cosine: cand.cosine,
		LatencyCycles: cand.latency, StorageBytes: cand.storage})
	if !admit {
		l.pol.record(d)
		s.lastPub = time.Now()
		return 0, fmt.Errorf("online: %s candidate held: %s", c.name, d.Reason)
	}
	v, err := cand.publish()
	if err != nil {
		return 0, err // serving keeps the previous version; evidence already reset
	}
	d.Version = v
	l.pol.record(d)
	return v, nil
}

// gate adds candidate-vs-source shadow batches to the stage's admission
// window and reports whether it is full: one batch per turn for a trained
// stage, whose candidate keeps training between turns; the whole window at
// once for a built one, whose candidate lives for this turn only. Caller
// holds s.mu.
func (l *Learner) gate(s *stage, cand *candidate) bool {
	for {
		bx := l.evalBatch(s)
		match, total := Agreement(cand.answer(bx), cand.source.Forward(bx))
		if full := l.pol.observeCandidate(s.class.name, match, total); full || s.trained() {
			return full
		}
	}
}

// evalBatch draws one admission batch from the reservoir with evalRng. The
// reservoir holds a batch by then: a trained stage's turn follows a training
// step, and a build needs one. A trained stage's caller already holds
// trainMu; a built stage takes it for the draw alone.
func (l *Learner) evalBatch(s *stage) *mat.Tensor {
	if !s.trained() {
		l.trainMu.Lock()
		defer l.trainMu.Unlock()
	}
	bx, _ := l.sampleBatchLocked(l.evalRng)
	return bx
}

// publish snapshots a trained stage's shadow into the class store. Caller
// holds trainMu (or is NewLearner, before any concurrency exists).
func (s *stage) publish() (uint64, error) {
	m, err := s.class.store.Publish(s.shadow, nn.CheckpointMeta{
		Examples: s.examples.Load(),
		Steps:    s.steps.Load(),
		Loss:     s.loss.fast,
	})
	if err != nil {
		return 0, err
	}
	s.class.published.Add(1)
	s.stepsAtPub = s.steps.Load()
	s.lastPub = time.Now()
	return m.Version, nil
}

// fitSnapshot copies the newest DartSamples reservoir examples into a
// kernel-fitting tensor (insertion order, deterministic) under one trainMu
// critical section — with the gate's draws, the only part of a build that
// touches trainer state.
func (l *Learner) fitSnapshot() (*mat.Tensor, error) {
	l.trainMu.Lock()
	defer l.trainMu.Unlock()
	if l.bufN < l.cfg.BatchSize {
		return nil, fmt.Errorf("online: not enough examples to tabularize (%d, need %d)", l.bufN, l.cfg.BatchSize)
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
	return fit, nil
}

// revertStage rolls a stage's class back one version. A trained stage
// resets its shadow to those weights and restarts its optimizer, so training
// continues from the rolled-back point rather than republishing the bad
// weights; a built stage forgets the source version it was built from, so
// its next turn rebuilds from the current source instead of skipping it as
// unchanged.
func (l *Learner) revertStage(s *stage) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.trained() {
		t, err := s.class.tables.Rollback()
		if err != nil {
			return 0, err
		}
		s.srcVer = 0
		return t.Version, nil
	}
	m, err := s.class.store.Rollback()
	if err != nil {
		return 0, err
	}
	if err := nn.CopyParams(s.shadow, m.Val); err != nil {
		return 0, fmt.Errorf("online: rollback: %w", err)
	}
	s.opt = nn.NewAdam(s.lr)
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
	Useful    uint64  `json:"useful"`           // tapped accesses that first used a prefetched line
	Late      uint64  `json:"late"`             // tapped accesses covered by an in-flight prefetch
	Examples  uint64  `json:"examples"`         // training examples assembled
	Trained   uint64  `json:"trained"`          // examples consumed by optimizer steps
	Steps     uint64  `json:"steps"`            // optimizer steps taken
	Loss      float64 `json:"loss"`             // online loss EWMA (fast horizon)
	LossTrend float64 `json:"loss_trend"`       // fast minus slow EWMA; negative = improving
	PerSec    float64 `json:"feedback_per_sec"` // tapped-event ingest throughput since start

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
		Ingested: l.ingested.Load(),
		Useful:   l.useful.Load(),
		Late:     l.late.Load(),
		Examples: l.assembled.Load(),
	}
	st.Dropped = l.detachedDrops.Load()
	l.tapMu.Lock()
	st.Sessions = len(l.taps)
	for _, t := range l.taps {
		st.Dropped += t.ring.Dropped()
	}
	l.tapMu.Unlock()
	// Each stage's counters land in its tier's fields, in stage order; a
	// counter a tier has no field for lands in none.
	var none uint64
	var nonef float64
	tiers := [...]struct {
		version, published, examples, steps, attempts, skips *uint64
		loss, trend, buildMs                                 *float64
	}{
		{&st.Version, &st.Published, &st.Trained, &st.Steps, &none, &none, &st.Loss, &st.LossTrend, &nonef},
		{&st.StudentVersion, &st.StudentPublished, &st.Distilled, &st.DistillSteps, &none, &none, &st.DistillLoss, &st.DistillTrend, &nonef},
		{&st.DartVersion, &st.DartPublished, &none, &st.Tabularized, &st.DartAttempts, &st.DartSkips, &nonef, &nonef, &st.TabularizeMs},
	}
	l.trainMu.Lock()
	for i, s := range l.stages {
		f := tiers[i]
		*f.version, *f.published = s.class.Version(), s.class.Published()
		*f.examples, *f.steps = s.examples.Load(), s.steps.Load()
		*f.skips = s.skips.Load()
		*f.attempts = *f.steps + *f.skips // a due turn either builds or counts a skip
		*f.loss, *f.trend = s.loss.fast, s.loss.fast-s.loss.slow
		*f.buildMs = float64(s.buildNs.Load()) / 1e6
	}
	l.trainMu.Unlock()
	if el := time.Since(l.start).Seconds(); el > 0 {
		st.PerSec = float64(st.Ingested) / el
	}
	return st
}
