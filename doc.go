// Package dart is a from-scratch Go reproduction of "Attention, Distillation,
// and Tabularization: Towards Practical Neural Network-Based Prefetching"
// (Zhang, Gupta, Kannan, Prasanna — IPDPS 2024, arXiv:2401.06362).
//
// DART converts an attention-based memory-access prediction model into a
// hierarchy of lookup tables: a large attention model is trained for
// accuracy, distilled into a compact student that satisfies prefetcher
// latency/storage constraints, and then tabularized layer by layer with
// product-quantization kernels and per-layer fine-tuning, eliminating the
// matrix multiplications from inference.
//
// The repository layout:
//
//	internal/mat       dense matrix/tensor substrate with a parallel blocked
//	                   matmul engine (AVX2+FMA micro-kernel on amd64)
//	internal/par       fork-join helper behind every parallel kernel
//	internal/nn        neural-network library (transformer, LSTM, Adam, losses)
//	internal/pq        product quantization (k-means + LSH encoders, batched
//	                   encoding, stored-width row quantization)
//	internal/tabular   tabularization kernels, Algorithm 1, complexity model,
//	                   batched hierarchy queries
//	internal/kd        multi-label knowledge distillation
//	internal/dataprep  address segmentation and delta-bitmap labels
//	internal/trace     synthetic SPEC-like LLC trace generators plus the
//	                   workload zoo: adversarial scenario generators (pointer
//	                   chasing, random graph traversal, zipfian key-value,
//	                   phase-shifting delta regimes), each a seeded,
//	                   deterministic Generate, in a name-indexed workload
//	                   registry
//	internal/sim       trace-driven LLC/DRAM simulator with prefetcher latency,
//	                   an incremental stepper (sim.Sim) with online-feedback
//	                   hooks, a configurable two-level hierarchy (private L2
//	                   in front of the shared LLC with inclusion and
//	                   prefetch-fill policies; single-level stays the
//	                   bit-identical degenerate config), and a concurrent
//	                   multi-trace driver
//	internal/metrics   F1 measures plus latency histograms with exact
//	                   percentiles for the serving engine
//	internal/prefetch  BO, ISB, stride, and NN/table prefetcher wrappers, with
//	                   a name-indexed factory registry
//	internal/config    table configurator and NN complexity models
//	internal/core      the end-to-end DART pipeline and evaluation sweeps
//	internal/serve     online multi-session serving engine: one session map
//	                   under one lock, per-session actors with bounded inboxes and
//	                   backpressure, one table of model classes (the static
//	                   tables plus every row of the learner's class table)
//	                   each given its admission batcher by one constructor —
//	                   queries coalesced across sessions, one version per
//	                   batch, source-class fallback and shadow-compare —
//	                   with weighted-round-robin fair-share admission
//	                   across tenants, a dual-protocol wire server
//	                   (line-JSON for debugging, DARTWIRE1 binary framing
//	                   with a zero-alloc hot path for production — see
//	                   docs/PROTOCOL.md), and a synchronous client for
//	                   both encodings
//	internal/loadgen   the one load generator: sessions pumped through an
//	                   in-process engine or a dialled daemon or router
//	                   (direct, JSON or binary), every reply's sequence
//	                   numbers checked, deterministic sessions re-run
//	                   offline for bit-identity; QPS-paced replay of the
//	                   benchmark apps, the mixed-tenant scenario matrix
//	                   (per-tenant workload, serving class, weight, and
//	                   cache hierarchy), and the soak loop behind
//	                   dart-serve's and dart-router's -replay and -matrix
//	internal/online    continual learning: per-session lock-free feedback
//	                   rings, streaming example assembly, duty-cycled
//	                   nn.Trainer fine-tuning of a shadow model, an online
//	                   teacher→student distiller (kd.Loss over the same
//	                   stream), a duty-cycled tabularizer re-tabularizing
//	                   the published student into hot-swappable table
//	                   hierarchies (the "dart" class), one class table
//	                   (Learner.Classes: teacher → student → dart handles
//	                   with per-class swap/rollback) that the wire verbs,
//	                   the policy engine and the serving engine all work on,
//	                   and a generic versioned store with independent classes
//	                   (atomic snapshots, CRC-validated checkpoints for nn
//	                   parameters and serialized table hierarchies alike)
//	                   hot-swapped into serving with no batch ever mixing
//	                   model versions
//
// Parallelism model: every hot path — blocked matmul, batched PQ encoding
// (pq.EncodeBatch), batched hierarchy queries (one sample per task; each
// table kernel encodes its own rows inline), multi-trace simulation sweeps —
// fans out through par.For in internal/par (capped by DART_MAX_WORKERS or
// par.SetMaxWorkers). Parallel kernels partition work in fixed blocks with
// serial in-block reduction order, so results are bit-identical for any
// worker count; see internal/par/README.md for the determinism guarantee and
// bench/README.md for how performance is measured.
//
// Serving model: cmd/dart-serve runs internal/serve as a long-running daemon
// (or, with -replay and -matrix, as internal/loadgen's target). Sessions — one per
// simulated core or tenant — own their prefetcher state and an incremental
// sim.Sim; served results are bit-identical to offline sim.Run over the same
// records, so online numbers compare directly against the paper's offline
// evaluation. With -online the daemon also runs internal/online's continual-
// learning loop: prefetch-outcome feedback from live sessions fine-tunes a
// shadow model that is published as immutable versioned snapshots
// (CRC-validated checkpoints under -checkpoint-dir, recovered on restart)
// and hot-swapped between inference batches with zero downtime; the wire
// protocol gains model/swap/rollback verbs with a model-class selector.
// With -student the daemon also serves the paper's deployment model (Sec.
// VI-D): a compact student continually distilled from the published teacher
// with the T-Sigmoid/Bernoulli-KL loss, published as an independent
// "student" model class, served with teacher fallback and an optional A/B
// shadow-compare mode reporting student-vs-teacher agreement. With -dart
// the pipeline closes end to end — teach → distill → tabularize → serve —
// online: a duty-cycled tabularizer re-tabularizes the published student
// and publishes the table hierarchy as the versioned "dart" class, the
// artifact the paper actually deploys, hot-swapped between batches like the
// model classes and measurably faster than the student it derives from
// (BenchmarkDartInfer, gated in CI). Sessions select their serving class at
// open per tenant ("online"/"student"/"dart"), and the classes verb lists
// every class's versions and modelled cost; dart-train -distill bridges
// offline distillation and tabularization into the same checkpoint
// directories. The server speaks two wire protocols, negotiated per
// connection: line-delimited JSON for debugging and the DARTWIRE1 binary
// framing (length-prefixed, CRC-guarded, varint-packed access records)
// whose steady-state serve path allocates nothing per access — a guarantee
// CI enforces through allocs/op benchmark gates (cmd/dart-benchcheck),
// alongside a docs gate (cmd/dart-doccheck) that keeps every wire verb
// documented. See docs/ARCHITECTURE.md for the pipeline map,
// docs/PROTOCOL.md for both wire specifications,
// internal/serve/README.md for the engine internals,
// internal/online/README.md for the feedback→train→publish→swap
// lifecycle, its serving classes, and version-consistency invariants, and
// bench/README.md for the measured serving numbers (JSON and binary wire,
// routed, and live learning).
//
// The bench_*_test.go files in this directory regenerate the tables and
// figures of the paper's evaluation section, one benchmark each (e.g.
// BenchmarkTableV_ModelComplexity, BenchmarkFig14_IPCImprovement); there is
// no paper-vs-measured index yet.
package dart
