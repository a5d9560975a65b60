GO ?= go
BENCH_TOLERANCE ?= 1.5
BENCH_MIN_SPEEDUP ?= 2.0
BENCH_MIN_WIRE_SPEEDUP ?= 5.0
BENCH_MAX_ROUTER_OVERHEAD ?= 3.0
BENCH_MIN_QUANT_SHRINK ?= 4.0
COVER_MAX_DROP ?= 1.0
BENCH_ONLINE = 'BenchmarkFeedbackIngest|BenchmarkModelSwap|BenchmarkTeacherInfer|BenchmarkStudentInfer|BenchmarkDistillCycle|BenchmarkDartInfer|BenchmarkTabularSwap|BenchmarkPolicyDecision|BenchmarkQuantRowAccum'
BENCH_WIRE = 'BenchmarkWireCodec|BenchmarkWireAccessBinary'
BENCH_ROUTER = 'BenchmarkRouterAccess|BenchmarkDirectAccess'

FUZZTIME ?= 30s

.PHONY: build test short race vet lint bench bench-build bench-ci bench-serve bench-update cover cover-update docs-lint fuzz ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## short: quick signal — small pipeline fixtures via -short
short:
	$(GO) test -short ./...

## race: the race-detector pass CI runs; -short keeps the heavy pipeline
## fixture out of the (≈10x slower) instrumented build
race:
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...

## lint: gofmt drift is an error (CI runs this as a separate job, plus
## pinned staticcheck + govulncheck when the tools are installed)
lint: vet
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi

## bench-build: compile the frozen benchmark against this tree. bench/ is its
## own module, so `go build ./... && go test ./...` at the root never sees
## bench/surface.go — an API refactor could break the benchmark while CI
## stays green. This vets it and runs its host-independent unit tests (the
## BENCHMARK.json/Go-table consistency check and the comparison maths), not
## the timed workloads.
bench-build:
	cd bench && $(GO) vet ./... && $(GO) test -run 'TestBenchmarkJSONInStep|TestJudge|TestPercentile|TestQuartiles' ./...

## bench: the parallel-engine benchmark grid recorded in BENCH_par.json
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkMatMul|BenchmarkHierarchyQueryBatch' -benchmem \
		./internal/mat ./internal/tabular

## bench-ci: perf-regression gate — run the engine benchmarks with a fixed
## small iteration count and fail on regression vs BENCH_par.json (absolute,
## with a generous tolerance for host differences), on losing the same-run
## par-vs-serial speedup (host-independent), or on the online-training,
## distilled-student, and dart-table benchmarks regressing vs
## BENCH_serve.json's "online" section (which also holds the same-run
## "student strictly faster and smaller than teacher" and "dart tables
## strictly faster than student" lines). The DARTWIRE1 wire benchmarks run
## with -benchmem because the gate also checks allocs/op against the
## "binary" section — the recorded baseline is 0 allocs per steady-state
## access, so one new allocation on the binary hot path fails the gate.
## The online benchmarks run with -benchmem for the same reason: the
## promotion policy's ObserveLive hot path is gated at 0 allocs/op, and the
## quantized row kernel (BenchmarkQuantRowAccum) likewise — plus the two
## same-run quantization bars against the "quant" section: int8 dart
## inference strictly faster than float, and its storage_bytes metric at
## least 4x smaller (BenchmarkDartInferQuant rides on the BenchmarkDartInfer
## substring match).
## -count 3 because the checker keeps the per-benchmark minimum: the
## µs-scale grid points are noisy at low iteration counts and min-of-3
## filters scheduler interference.
bench-ci:
	$(GO) test -run '^$$' -bench 'BenchmarkMatMul|BenchmarkHierarchyQueryBatch' -benchtime 5x -count 3 -benchmem \
		./internal/mat ./internal/tabular > bench-ci.out || { cat bench-ci.out; exit 1; }
	$(GO) test -run '^$$' -bench $(BENCH_ONLINE) -benchtime 50ms -count 3 -benchmem \
		./internal/online >> bench-ci.out || { cat bench-ci.out; exit 1; }
	$(GO) test -run '^$$' -bench $(BENCH_WIRE) -benchtime 100ms -count 3 -benchmem \
		./internal/serve >> bench-ci.out || { cat bench-ci.out; exit 1; }
	$(GO) test -run '^$$' -bench $(BENCH_ROUTER) -benchtime 100ms -count 3 -benchmem \
		./internal/route >> bench-ci.out || { cat bench-ci.out; exit 1; }
	@cat bench-ci.out
	$(GO) run ./cmd/dart-benchcheck -baseline BENCH_par.json -serve-baseline BENCH_serve.json \
		-tolerance $(BENCH_TOLERANCE) -min-speedup $(BENCH_MIN_SPEEDUP) \
		-min-wire-speedup $(BENCH_MIN_WIRE_SPEEDUP) -max-router-overhead $(BENCH_MAX_ROUTER_OVERHEAD) \
		-min-quant-shrink $(BENCH_MIN_QUANT_SHRINK) bench-ci.out

## bench-serve: regenerate the serving-throughput report in BENCH_serve.json.
## The "report" section is the JSON-wire replay baseline the binary protocol's
## 5x speedup gate compares against; the "online"/"binary" bench sections are
## preserved (bench-update refreshes everything).
bench-serve:
	$(GO) run ./cmd/dart-serve -replay -sessions 8 -n 20000 -prefetcher stride -verify \
		-proto json -json BENCH_serve.json

## bench-update: regenerate every serving baseline in one step — the JSON-wire
## replay report, the DARTWIRE1 replay throughput (same workload over binary
## framing; the pair feeds the ≥5x wire-speedup gate), the online-training
## benchmark numbers, the wire codec/alloc numbers the bench-ci gate
## enforces, the routed replay (same workload through a 3-backend dart-router,
## verified bit-identical), and the routed/direct access benchmarks behind
## the router-overhead gate
bench-update: bench-serve
	$(GO) run ./cmd/dart-serve -replay -sessions 8 -n 20000 -prefetcher stride -verify \
		-proto binary -json BENCH_serve.json
	$(GO) test -run '^$$' -bench $(BENCH_ONLINE) -benchtime 2s -benchmem \
		./internal/online > bench-online.out || { cat bench-online.out; exit 1; }
	@cat bench-online.out
	$(GO) run ./cmd/dart-benchcheck -write-online BENCH_serve.json bench-online.out
	$(GO) run ./cmd/dart-benchcheck -write-quant BENCH_serve.json bench-online.out
	$(GO) test -run '^$$' -bench $(BENCH_WIRE) -benchtime 2s -benchmem \
		./internal/serve > bench-wire.out || { cat bench-wire.out; exit 1; }
	@cat bench-wire.out
	$(GO) run ./cmd/dart-benchcheck -write-binary BENCH_serve.json bench-wire.out
	$(GO) run ./cmd/dart-router -spawn 3 -replay -sessions 8 -n 20000 -prefetcher stride -verify \
		-proto binary -json BENCH_serve.json
	$(GO) test -run '^$$' -bench $(BENCH_ROUTER) -benchtime 1s -benchmem \
		./internal/route > bench-router.out || { cat bench-router.out; exit 1; }
	@cat bench-router.out
	$(GO) run ./cmd/dart-benchcheck -write-router BENCH_serve.json bench-router.out

## cover: coverage ratchet — total statement coverage may not drop more than
## COVER_MAX_DROP points below the committed COVERAGE.txt baseline
cover:
	$(GO) test -short -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out > coverage-func.txt
	$(GO) run ./cmd/dart-covercheck -baseline COVERAGE.txt -max-drop $(COVER_MAX_DROP) coverage-func.txt

## docs-lint: documentation gate — every relative link in docs/ and the
## READMEs must resolve, and every wire verb must be documented in
## docs/PROTOCOL.md
docs-lint:
	$(GO) run ./cmd/dart-doccheck -root .

## fuzz: timed coverage-guided fuzzing of the CSV trace reader (the per-PR
## tier replays the committed corpus as ordinary tests; nightly runs 5m)
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzScanner -fuzztime $(FUZZTIME) ./internal/trace

## cover-update: ratchet the committed baseline up to the measured value
cover-update:
	$(GO) test -short -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out > coverage-func.txt
	$(GO) run ./cmd/dart-covercheck -write -baseline COVERAGE.txt coverage-func.txt

ci: vet build test race bench-build docs-lint
