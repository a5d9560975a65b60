GO ?= go
COVER_MAX_DROP ?= 1.0

FUZZTIME ?= 30s

.PHONY: build test short race vet lint bench-build bench-ci cover cover-update docs-lint fuzz ci

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

## bench-ci: perf gate — run the benchmarks the dart-benchcheck rows read and
## check them. Every row compares numbers from this one run (par-vs-serial
## matmul, teacher > student > dart, int8 vs float tables, binary vs JSON
## wire access, routed vs direct access) or requires 0 allocs/op on a hot
## path (wire codec, policy, int8 row kernel, simulator cache), so the gate
## gives the same answer on any host; timing across
## commits is bench/'s job (`bash bench/run.sh -compare`). -benchmem feeds
## the allocs rows; -count because the checker keeps the per-benchmark
## minimum, which filters scheduler interference at these short benchtimes.
## The online set runs longer and more often: int8 and float dart tables
## share one query path and run within a few percent of each other (the
## parity row allows int8 25% slower), closer than 50ms samples resolve on a
## busy host. BenchmarkDartInfer also selects BenchmarkDartInferQuant.
bench-ci:
	$(GO) test -run '^$$' -bench 'BenchmarkMatMul' -benchtime 5x -count 3 -benchmem \
		./internal/mat > bench-ci.out || { cat bench-ci.out; exit 1; }
	$(GO) test -run '^$$' -bench 'BenchmarkTeacherInfer|BenchmarkStudentInfer|BenchmarkDartInfer|BenchmarkPolicyDecision|BenchmarkQuantRowAccum' \
		-benchtime 200ms -count 5 -benchmem ./internal/online >> bench-ci.out || { cat bench-ci.out; exit 1; }
	$(GO) test -run '^$$' -bench 'BenchmarkWireCodec|BenchmarkWireAccessBinary|BenchmarkWireAccessJSON' \
		-benchtime 100ms -count 3 -benchmem ./internal/serve >> bench-ci.out || { cat bench-ci.out; exit 1; }
	$(GO) test -run '^$$' -bench 'BenchmarkRouterAccess|BenchmarkDirectAccess' \
		-benchtime 100ms -count 3 -benchmem ./internal/route >> bench-ci.out || { cat bench-ci.out; exit 1; }
	$(GO) test -run '^$$' -bench 'BenchmarkCacheLookup|BenchmarkCacheFill' \
		-benchtime 100ms -count 3 -benchmem ./internal/sim >> bench-ci.out || { cat bench-ci.out; exit 1; }
	@cat bench-ci.out
	$(GO) run ./cmd/dart-benchcheck bench-ci.out

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

## fuzz: timed coverage-guided fuzzing of the CSV trace reader, the
## -matrix-spec parser, the DARTWIRE1 request decoder, the DARTTAB1 table
## checkpoint decoder, the DARTCKP1 model checkpoint decoder and the
## -policy-spec parser, FUZZTIME each (the per-PR tier replays the committed
## corpora as ordinary tests; nightly runs 5m each)
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzScanner -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzParseMatrixSpec -fuzztime $(FUZZTIME) ./internal/loadgen
	$(GO) test -run '^$$' -fuzz FuzzWireFrame -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzTableCheckpoint -fuzztime $(FUZZTIME) ./internal/tabular
	$(GO) test -run '^$$' -fuzz FuzzModelCheckpoint -fuzztime $(FUZZTIME) ./internal/nn
	$(GO) test -run '^$$' -fuzz FuzzParsePolicySpec -fuzztime $(FUZZTIME) ./internal/config

## cover-update: ratchet the committed baseline up to the measured value
cover-update:
	$(GO) test -short -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out > coverage-func.txt
	$(GO) run ./cmd/dart-covercheck -write -baseline COVERAGE.txt coverage-func.txt

## ci: the per-PR workflow's checks that need no extra tools: lint (vet +
## gofmt), build, tests, race, the frozen benchmark's build, docs, and the
## whole suite on the generic (purego) kernels, as the cross-compile job runs it
ci: lint build test race bench-build docs-lint
	$(GO) test -tags purego -short ./...
