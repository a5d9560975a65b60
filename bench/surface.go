package main

// surface.go is the benchmark's whole imported surface: the only file that
// imports dart/internal/... Everything else in this package is written
// against the aliases and functions below, so a refactor can read this one
// file to see which signatures the frozen benchmark compiles against
// (README.md lists them). Changing one of those signatures needs its own
// `benchmark` issue first.

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"time"

	"dart/internal/config"
	"dart/internal/core"
	"dart/internal/dataprep"
	"dart/internal/kd"
	"dart/internal/mat"
	"dart/internal/nn"
	"dart/internal/online"
	"dart/internal/pq"
	"dart/internal/prefetch"
	"dart/internal/route"
	"dart/internal/serve"
	"dart/internal/sim"
	"dart/internal/tabular"
	"dart/internal/trace"
)

type (
	Record       = trace.Record
	SimResult    = sim.Result
	Client       = serve.Client
	AccessResult = serve.AccessResult
)

const (
	trainApp = "462.libquantum"
	degree   = 4
	backends = 3 // routed-stride shards
)

// sessionTraces generates one serving trace per session. Sessions cycle
// through trace.Apps() starting at the training app, seed-shifted per lap;
// seed offsets every generator seed, so the program under test only ever sees
// the generated records.
//
// A trace is `segments` phases back to back, each an independent realisation
// of the application (its own generator seed) in its own 1 GiB region. One
// realisation draws a handful of stream strides once, and IPC and prefetch
// accuracy swing by 15-25% between realisations; a run that averages a few
// dozen of them reads within a few percent whatever --seed it is given.
func sessionTraces(sessions, n, segments int, seed int64) [][]Record {
	apps := trace.Apps()
	start := 0
	for i, a := range apps {
		if a.Name == trainApp {
			start = i
		}
	}
	traces := make([][]Record, sessions)
	for i := range traces {
		traces[i] = make([]Record, 0, n)
		var instr uint64
		for j := 0; j < segments; j++ {
			app := apps[(start+i)%len(apps)]
			app.Seed += 1000*int64(i/len(apps)+1) + 7919*seed + 104729*int64(j)
			phase := trace.Generate(app, n/segments)
			for k := range phase {
				phase[k].InstrID += instr
				phase[k].Addr += uint64(j) << 30
			}
			instr = phase[len(phase)-1].InstrID
			traces[i] = append(traces[i], phase...)
		}
	}
	return traces
}

func mergeResults(rs []SimResult) SimResult { return sim.Merge(rs) }

func accuracyPct(r SimResult) float64 { return 100 * r.Accuracy() }

func coveragePct(base, r SimResult) float64 { return 100 * sim.Coverage(base, r) }

// ---- the frozen model ------------------------------------------------------

// buildSize scales the paper pipeline: n training accesses, and that many
// epochs each of teacher training, distillation and table fine-tuning. The
// full size is what every measured run builds (≈14 s on the reference host,
// the most the benchmark's wall-clock cap leaves room for); the tables it
// yields lose no F1 against the student they replace (0.878 against 0.875).
type buildSize struct{ n, epochs int }

var (
	fullBuild  = buildSize{n: 8000, epochs: 3}
	quickBuild = buildSize{n: 600, epochs: 1}
)

// model is the artifact of core.BuildDART plus its int8 re-tabularization.
type model struct {
	art    *core.Artifacts
	buildS float64

	int8  *tabular.Hierarchy
	int8S float64
}

func buildModel(sz buildSize) (*model, error) {
	spec, ok := trace.AppByName(trainApp)
	if !ok {
		return nil, fmt.Errorf("no application %q", trainApp)
	}
	kdc := kd.DefaultConfig()
	kdc.Epochs = sz.epochs
	t0 := time.Now()
	art, err := core.BuildDART(trace.Generate(spec, sz.n), core.Options{
		TeacherEpochs:  sz.epochs,
		KD:             kdc,
		FineTune:       true,
		FineTuneEpochs: sz.epochs,
		Encoder:        tabular.EncoderLSH,
		Seed:           1,
	})
	if err != nil {
		return nil, fmt.Errorf("core.BuildDART: %w", err)
	}
	return &model{art: art, buildS: time.Since(t0).Seconds()}, nil
}

// quantize re-tabularizes the same student at DataBits 8 (same K/C/seed).
func (m *model) quantize() {
	if m.int8 != nil {
		return
	}
	fit := m.art.Train.X
	if limit := m.art.Opt.FitSamples; fit.N > limit {
		idx := make([]int, limit)
		for i := range idx {
			idx[i] = i
		}
		fit = fit.Gather(idx)
	}
	t0 := time.Now()
	res := tabular.Tabularize(m.art.Student, fit, tabular.Config{
		Kernel: tabular.KernelConfig{
			K: m.art.Chosen.Table.K, C: m.art.Chosen.Table.C,
			Kind: tabular.EncoderLSH, DataBits: 8,
		},
		FineTune:       true,
		FineTuneEpochs: m.art.Opt.FineTuneEpochs,
		Seed:           1,
	})
	m.int8, m.int8S = res.Hierarchy, time.Since(t0).Seconds()
}

// table returns the static hierarchy a workload serves: nil for the model-free
// ones (which may have no model at all) and for the live learner's.
func (m *model) table(w workload) *tabular.Hierarchy {
	switch w.table {
	case "float":
		return m.art.Tables.Hierarchy
	case "int8":
		m.quantize()
		return m.int8
	}
	return nil
}

func (m *model) engineConfig(h *tabular.Hierarchy) serve.Config {
	cost := h.Cost()
	return serve.Config{
		Model: h, Data: m.art.Opt.Data,
		ModelLatency: cost.LatencyCycles, ModelStorage: cost.StorageBytes(),
	}
}

// offlinePrefetcher is the prefetcher an offline sim.Run uses to reproduce a
// served session bit for bit: the registry's for rule-based names, the table
// hierarchy queried inline for "dart". Rule-based names need no model, so the
// receiver may be nil for them (the stride workloads never build one).
func (m *model) offlinePrefetcher(name string, h *tabular.Hierarchy) sim.Prefetcher {
	if name == "dart" {
		cfg := m.engineConfig(h)
		return prefetch.NewNNPrefetcher("DART", prefetch.TableModel{H: h},
			cfg.Data, cfg.ModelLatency, cfg.ModelStorage, degree)
	}
	pf, err := prefetch.NewRegistry().New(name, degree)
	if err != nil {
		panic(err)
	}
	return pf
}

// offlineResults runs every trace through offline sim.Run with a fresh
// prefetcher: the expected value of each served session.
func (m *model) offlineResults(w workload, prefetcher string, traces [][]Record) []SimResult {
	var h *tabular.Hierarchy
	if prefetcher == "dart" {
		h = m.table(w)
	}
	jobs := make([]sim.Job, len(traces))
	for i, recs := range traces {
		jobs[i] = sim.Job{Recs: recs, PF: m.offlinePrefetcher(prefetcher, h), Cfg: sim.DefaultConfig()}
	}
	return sim.RunMany(jobs)
}

// ---- the system under test -------------------------------------------------

// system is one workload's serving stack, started in-process through the
// entry points dart-serve and dart-router use.
type system struct {
	addr    string          // wire front end; "" for the in-process fan-in
	engines []*serve.Engine // the serving engine, or the routed backends
	router  *route.Router
	learner *online.Learner
	stops   []func() // run in reverse by stop
}

// listenAndServe runs serve on a fresh loopback listener until stop, which
// also waits for the accept loop to return.
func (s *system) listenAndServe(serve func(net.Listener) error, stop func()) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		serve(ln) // returns nil after stop; an accept error surfaces as failed requests
	}()
	s.stops = append(s.stops, func() { stop(); <-done })
	return ln.Addr().String(), nil
}

func (s *system) serveEngine(cfg serve.Config) (string, error) {
	e := serve.NewEngine(cfg)
	s.engines = append(s.engines, e)
	srv := serve.NewServer(e)
	return s.listenAndServe(srv.Serve, func() { srv.Shutdown() })
}

// startSystem starts the stack a workload drives; on error nothing is left
// running.
func startSystem(w workload, m *model) (*system, error) {
	s := &system{}
	if err := s.start(w, m); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *system) start(w workload, m *model) (err error) {
	cfg := serve.Config{}
	if h := m.table(w); h != nil {
		cfg = m.engineConfig(h)
	}
	switch {
	case w.routed:
		specs := make([]route.BackendSpec, backends)
		for i := range specs {
			specs[i].Name = fmt.Sprintf("shard%d", i)
			if specs[i].Addr, err = s.serveEngine(cfg); err != nil {
				return err
			}
		}
		if s.router, err = route.NewRouter(route.Config{Backends: specs}); err != nil {
			return err
		}
		s.stops = append(s.stops, s.router.Close)
		front := route.NewServer(s.router)
		s.addr, err = s.listenAndServe(front.Serve, front.Stop)
	case w.fanin:
		e := serve.NewEngine(cfg)
		s.engines = append(s.engines, e)
		s.stops = append(s.stops, func() { e.Drain() })
	case w.table == "live":
		if s.learner, err = m.newLearner(w.publish); err != nil {
			return err
		}
		s.learner.Start()
		s.stops = append(s.stops, s.learner.Stop)
		s.addr, err = s.serveEngine(serve.Config{Online: s.learner})
	default:
		s.addr, err = s.serveEngine(cfg)
	}
	return err
}

func (s *system) stop() {
	for i := len(s.stops) - 1; i >= 0; i-- {
		s.stops[i]()
	}
	s.stops = nil
}

// newLearner wires the continual-learning loop the way dart-serve -dart
// -pretrain does: the teacher has the built student's shape and starts from
// its weights, the student tier is nn.StudentConfig of it, the dart tier uses
// the serving default tabularization, and every class publishes on the same
// interval with the promotion policy off.
func (m *model) newLearner(publish time.Duration) (*online.Learner, error) {
	data, cm := m.art.Opt.Data, m.art.Chosen.Model
	tcfg := nn.TransformerConfig{
		T: data.History, DIn: data.InputDim(), DModel: cm.DA, DFF: cm.DF,
		DOut: data.OutputDim(), Heads: cm.H, Layers: cm.L,
	}
	scfg := nn.StudentConfig(tcfg)
	sm := config.ModelConfig{
		T: scfg.T, DI: scfg.DIn, DA: scfg.DModel, DF: scfg.DFF,
		DO: scfg.DOut, H: scfg.Heads, L: scfg.Layers,
	}
	return online.NewLearner(online.Config{
		Data: data,
		New: func() nn.Layer {
			return nn.NewTransformerPredictor(tcfg, rand.New(rand.NewSource(7)))
		},
		Init:         m.art.Student,
		SwapInterval: publish,
		Latency:      config.NNLatency(cm),
		StorageBytes: config.NNStorageBits(cm, 32) / 8,
		Student: func() nn.Layer {
			return nn.NewTransformerPredictor(scfg, rand.New(rand.NewSource(13)))
		},
		DistillInterval:     publish,
		StudentLatency:      config.NNLatency(sm),
		StudentStorageBytes: config.NNStorageBits(sm, 32) / 8,
		Dart:                true,
		TabularizeInterval:  publish,
		Seed:                7,
	})
}

// connect dials the wire front end with the production (binary) protocol.
func (s *system) connect(frame int) (*Client, error) {
	return serve.Connect(s.addr, serve.WithBatchSize(frame))
}

// openFanIn opens an in-process session and returns its submit function; ack
// runs on the session's actor goroutine once per simulated access.
func (s *system) openFanIn(id, prefetcher string, ack func(seq uint64)) (func(Record) error, error) {
	e := s.engines[0]
	if err := e.Open(id, prefetcher, degree); err != nil {
		return nil, err
	}
	cb := func(r serve.Response) { ack(r.Seq) }
	return func(rec Record) error { return e.Submit(id, rec, cb) }, nil
}

func (s *system) closeFanIn(id string) (SimResult, error) { return s.engines[0].Close(id) }

// Counter names are per-layer metric names. gauges are read as they stand at
// the end of a run; every other counter is reported as its growth over the
// timed rounds.
var gauges = map[string]bool{
	"serve.batcher.max_batch":        true,
	"serve.batcher.max_wait_batches": true,
	"route.backends_used":            true,
	"route.backends_healthy":         true,
}

// counters reads the public stats of every layer the system has.
func (s *system) counters() map[string]float64 {
	c := map[string]float64{}
	for _, e := range s.engines {
		st := e.StatsSnapshot()
		if s.router != nil && st.Accepted > 0 {
			c["route.backends_used"]++
		}
		c["serve.engine.accepted"] += float64(st.Accepted)
		c["serve.batcher.batches"] += float64(st.Batches)
		c["serve.batcher.queries"] += float64(st.Batched)
		c["serve.batcher.max_batch"] = max(c["serve.batcher.max_batch"], float64(st.MaxBatch))
		for _, t := range st.Tenants {
			c["serve.batcher.starved_batches"] += float64(t.Starved)
			c["serve.batcher.max_wait_batches"] = max(c["serve.batcher.max_wait_batches"], float64(t.MaxWaitBatches))
		}
	}
	if s.learner != nil {
		st := s.learner.Stats()
		c["online.ingested"] = float64(st.Ingested)
		c["online.dropped"] = float64(st.Dropped)
		c["online.train_steps"] = float64(st.Steps)
		c["online.distill_steps"] = float64(st.DistillSteps)
		c["online.teacher_published"] = float64(st.Published)
		c["online.student_published"] = float64(st.StudentPublished)
		c["online.dart_published"] = float64(st.DartPublished)
		c["online.dart_skips"] = float64(st.DartSkips)
		c["online.tabularize_ms"] = st.TabularizeMs
	}
	if s.router != nil {
		if rep, err := s.router.Stats(); err == nil && rep.Stats != nil {
			for _, b := range rep.Stats.Backends {
				if b.Healthy {
					c["route.backends_healthy"]++
				}
			}
		}
	}
	return c
}

// forcedSwaps times one forced publish of every class (after the last round).
func (s *system) forcedSwaps(out map[string]float64) {
	if s.learner == nil {
		return
	}
	t0 := time.Now()
	_, errT := s.learner.Swap()
	t1 := time.Now()
	_, errS := s.learner.SwapStudent()
	t2 := time.Now()
	_, errD := s.learner.SwapDart()
	t3 := time.Now()
	if errT == nil {
		out["online.swap_teacher_us"] = float64(t1.Sub(t0).Nanoseconds()) / 1e3
	}
	if errS == nil {
		out["online.swap_student_us"] = float64(t2.Sub(t1).Nanoseconds()) / 1e3
	}
	if errD == nil { // fails only while the reservoir is still too small to fit kernels
		out["online.swap_dart_ms"] = float64(t3.Sub(t2).Nanoseconds()) / 1e6
	}
}

// ---- the layer ladder ------------------------------------------------------

// layerLadder times each layer's public entry points on the workload's own
// records, from outside. Each rung is a larger entry point than the last; a
// layer's self time is its rung minus the rung it contains. Keys are per-layer
// metric names. The loopback rungs, which need no import, are in traced.go.
func layerLadder(w workload, m *model, recs []Record) (map[string]float64, error) {
	out := map[string]float64{}
	art := m.art
	data := art.Opt.Data
	m.quantize()
	floatH, int8H := art.Tables.Hierarchy, m.int8
	served := floatH // the table the workload's sessions query
	if w.table == "int8" {
		served = int8H
	}

	// wire codec, 64-record frames.
	const frame = 64
	nFrames := min(len(recs)/frame, 64)
	codecRecs := recs[:nFrames*frame]
	var buf []byte
	out["serve.wire.encode_req_ns"] = timeOp(len(codecRecs), func() {
		for lo := 0; lo < len(codecRecs); lo += frame {
			buf = serve.AppendAccessRequest(buf[:0], uint64(lo), "s0", codecRecs[lo:lo+frame])
		}
	})
	var stream []byte
	for lo := 0; lo < len(codecRecs); lo += frame {
		stream = serve.AppendAccessRequest(stream, uint64(lo), "s0", codecRecs[lo:lo+frame])
	}
	br := bufio.NewReader(nil)
	scratch := make([]Record, 0, frame)
	var decodeErr error
	out["serve.wire.decode_req_ns"] = timeOp(len(codecRecs), func() {
		br.Reset(bytes.NewReader(stream))
		fr := serve.NewFrameReader(br)
		for i := 0; i < nFrames; i++ {
			kind, p, err := fr.Next()
			if err == nil {
				_, _, _, err = serve.DecodeAccessRequest(kind, p, scratch[:0])
			}
			if err != nil {
				decodeErr = err
			}
		}
	})
	if decodeErr != nil {
		return nil, fmt.Errorf("wire decode rung: %w", decodeErr)
	}
	replies := stepResults(codecRecs, m.offlinePrefetcher(w.prefetcher, served))
	out["serve.wire.encode_reply_ns"] = timeOp(len(codecRecs), func() {
		for lo := 0; lo < len(replies); lo += frame {
			buf = serve.AppendResultsReply(buf[:0], true, uint64(lo), replies[lo:lo+frame])
		}
	})

	// sim.Sim.Step with no prefetcher, then with each prefetcher inline.
	simRecs := recs[:min(len(recs), 20000)]
	tabRecs := recs[:min(len(recs), 500)]
	cfg := sim.DefaultConfig()
	stepNs := func(rs []Record, pf func() sim.Prefetcher) float64 {
		var s *sim.Sim
		return timeOpPrepared(len(rs), func() { s = sim.NewSim(pf(), cfg) }, func() {
			for _, r := range rs {
				s.Step(r)
			}
		})
	}
	none := func() sim.Prefetcher { return sim.NoPrefetcher{} }
	out["sim.step_ns"] = stepNs(simRecs, none)
	out["prefetch.stride_ns"] = stepNs(simRecs, func() sim.Prefetcher { return m.offlinePrefetcher("stride", nil) }) - out["sim.step_ns"]
	tableStep := stepNs(tabRecs, func() sim.Prefetcher { return m.offlinePrefetcher("dart", served) })
	runRecs := simRecs
	if w.prefetcher == "dart" {
		runRecs = tabRecs
	}
	out["sim.offline_run_ns_per_access"] = timeOp(len(runRecs), func() {
		sim.Run(runRecs, m.offlinePrefetcher(w.prefetcher, served), cfg)
	})

	// NNPrefetcher halves, and the model inputs the ladder's table rungs use.
	inputs, accs := modelInputs(data, recs, 64)
	if len(inputs) == 0 {
		return nil, fmt.Errorf("trace of %d records never fills the history window", len(recs))
	}
	pf := prefetch.NewNNPrefetcher("ladder", nil, data, 0, 0, degree)
	inRecs := recs[:min(len(recs), 4096)]
	out["prefetch.input_ns"] = timeOp(len(inRecs), func() {
		for _, r := range inRecs {
			pf.BuildInput(sim.Access{PC: r.PC, Block: r.Block()})
		}
	})
	logits := make([][]float64, len(inputs))
	for i, x := range inputs {
		logits[i] = prefetch.TableModel{H: served}.Logits(x)
	}
	out["prefetch.apply_ns"] = timeOp(len(inputs), func() {
		for i, a := range accs {
			pf.Apply(a, logits[i])
		}
	})

	// tabular: whole query, batch of 16, and the leaf walk; float then int8.
	batch := mat.NewTensor(16, data.History, data.InputDim())
	for i := 0; i < batch.N; i++ {
		copy(batch.Sample(i).Data, inputs[i%len(inputs)].Data)
	}
	for _, t := range []struct {
		prefix string
		h      *tabular.Hierarchy
	}{{"tabular.", floatH}, {"tabular.int8.", int8H}} {
		out[t.prefix+"query_ns"] = timeOp(len(inputs), func() {
			for _, x := range inputs {
				t.h.Query(x)
			}
		})
		out[t.prefix+"query_allocs"] = allocsPerOp(len(inputs), func() {
			for _, x := range inputs {
				t.h.Query(x)
			}
		})
		out[t.prefix+"querybatch16_ns"] = timeOp(batch.N, func() { t.h.QueryBatch(batch) })
		out[t.prefix+"storage_bytes"] = float64(t.h.MeasuredStorageBytes())
	}
	for k, v := range leafWalk(floatH.Layers, inputs[0]) {
		out[k] = v
	}
	out["tabular.model_latency_cycles"] = float64(floatH.Cost().LatencyCycles)
	out["tabular.int8.tabularize_s"] = m.int8S
	out["tabular.int8.f1"] = core.EvaluateTableF1(int8H, art.Test)

	// pq: an LSH encoder of the chosen K/C fitted on the embed-layer inputs.
	rows := mat.New(len(inputs)*data.History, data.InputDim())
	for i, x := range inputs {
		copy(rows.Data[i*len(x.Data):], x.Data)
	}
	enc := pq.NewLSHEncoder(data.InputDim(), art.Chosen.Table.C, art.Chosen.Table.K, rand.New(rand.NewSource(1)))
	enc.Fit(rows)
	out["pq.lsh_encode_row_ns"] = timeOp(rows.Rows, func() { pq.EncodeBatch(enc, rows) })

	// mat: one quantized-row accumulate at the head width.
	q := make([]int8, data.OutputDim())
	for i := range q {
		q[i] = int8(i*7 - 100)
	}
	dst := make([]float64, len(q))
	out["mat.accum_row_int8_ns"] = timeOp(1024, func() {
		for i := 0; i < 1024; i++ {
			mat.AccumRowInt8(dst, q, -3, 0.017)
		}
	})

	// nn: the networks the tables replace.
	out["nn.student_forward16_ns"] = timeOp(batch.N, func() { art.Student.Forward(batch) })
	out["nn.teacher_forward16_ns"] = timeOp(batch.N, func() { art.Teacher.Forward(batch) })

	// online: the feedback tap (push, with the drain that frees the slots).
	ring := online.NewRing(4096)
	ev := online.Event{Access: accs[0]}
	out["online.ring_push_ns"] = timeOp(ring.Cap(), func() {
		for i := 0; i < ring.Cap(); i++ {
			ring.Push(ev)
		}
		ring.Drain(func(online.Event) {})
	})

	// core / trace: what set-up is made of.
	out["core.build_s"] = m.buildS
	out["core.f1_teacher"] = art.F1Teacher
	out["core.f1_student"] = art.F1Student
	out["core.f1_dart"] = art.F1DART
	spec, _ := trace.AppByName(trainApp)
	out["trace.generate_ns_per_record"] = timeOp(20000, func() { trace.Generate(spec, 20000) })

	// serve.engine: Engine.Access direct, one access per hop.
	hopRecs := recs[:min(len(recs), 2048)]
	engineNs := func(cfg serve.Config, name string, rs []Record) (float64, error) {
		e := serve.NewEngine(cfg)
		defer e.Drain()
		var opErr error
		note := func(err error) {
			if err != nil && opErr == nil {
				opErr = err
			}
		}
		open := false
		ns := timeOpPrepared(len(rs), func() {
			if open {
				_, err := e.Close("hop")
				note(err)
			}
			note(e.Open("hop", name, degree))
			open = true
		}, func() {
			for _, r := range rs {
				_, err := e.Access("hop", r)
				note(err)
			}
		})
		return ns, opErr
	}
	accessNone, err := engineNs(serve.Config{}, "none", hopRecs)
	if err != nil {
		return nil, fmt.Errorf("engine rung: %w", err)
	}
	out["serve.engine.actor_hop_ns"] = accessNone - out["sim.step_ns"]
	accessDart, err := engineNs(m.engineConfig(served), "dart", tabRecs)
	if err != nil {
		return nil, fmt.Errorf("engine dart rung: %w", err)
	}
	out["serve.batcher.handoff_ns"] = accessDart - tableStep

	return out, nil
}

// stepResults simulates recs and returns the access replies a server would
// encode for them.
func stepResults(recs []Record, pf sim.Prefetcher) []AccessResult {
	s := sim.NewSim(pf, sim.DefaultConfig())
	out := make([]AccessResult, len(recs))
	for i, r := range recs {
		st := s.Step(r)
		out[i] = AccessResult{Seq: uint64(i + 1), Hit: st.Hit, Late: st.Late,
			Prefetches: append([]uint64(nil), st.Prefetches...)}
	}
	return out
}

// modelInputs returns up to n full-window model inputs built from recs, with
// the trigger access of each.
func modelInputs(data dataprep.Config, recs []Record, n int) ([]*mat.Matrix, []sim.Access) {
	pf := prefetch.NewNNPrefetcher("inputs", nil, data, 0, 0, degree)
	var xs []*mat.Matrix
	var accs []sim.Access
	for _, r := range recs {
		a := sim.Access{InstrID: r.InstrID, PC: r.PC, Block: r.Block()}
		if x, ok := pf.BuildInput(a); ok {
			xs = append(xs, x.Clone())
			accs = append(accs, a)
			if len(xs) == n {
				break
			}
		}
	}
	return xs, accs
}

// leafWalk times every leaf of the hierarchy on the activation that reaches
// it, grouped the way the network is drawn: the embedding projection, the
// attention block, the feed-forward projections, the output head, and the
// layers the paper keeps in native arithmetic.
func leafWalk(layers []tabular.Layer, x *mat.Matrix) map[string]float64 {
	out := map[string]float64{
		"tabular.embed_linear_ns": 0, "tabular.msa_ns": 0, "tabular.ffn_ns": 0,
		"tabular.head_linear_ns": 0, "tabular.passthrough_ns": 0,
	}
	pooled := false
	var walk func(layers []tabular.Layer, x *mat.Matrix, inner bool) *mat.Matrix
	walk = func(layers []tabular.Layer, x *mat.Matrix, inner bool) *mat.Matrix {
		for _, l := range layers {
			if r, ok := l.(*tabular.ResidualTab); ok {
				y := walk(r.Inner, x, true)
				x = mat.Add(x, y)
				continue
			}
			key := "tabular.passthrough_ns"
			switch l.(type) {
			case *tabular.MSAKernel:
				key = "tabular.msa_ns"
			case *tabular.LinearKernel:
				switch {
				case pooled:
					key = "tabular.head_linear_ns"
				case inner:
					key = "tabular.ffn_ns"
				default:
					key = "tabular.embed_linear_ns"
				}
			case tabular.MeanPoolTab:
				pooled = true
			}
			in := x
			out[key] += timeOp(16, func() { // 16 calls a clock read: the cheapest leaves take ~100 ns
				for i := 0; i < 16; i++ {
					l.Query(in)
				}
			})
			x = l.Query(x)
		}
		return x
	}
	walk(layers, x, false)
	return out
}
