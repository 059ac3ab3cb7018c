# Reproduction of Youn, Henschen & Han, SIGMOD 1988.
# Everything is stdlib-only Go; the module works fully offline.

GO ?= go

.PHONY: all build vet test test-short race size verify cover bench bench-smoke obs-smoke serve-smoke experiments experiments-quick fuzz clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# -shuffle=on randomizes test execution order so inter-test state
# dependencies (shared caches, package-level registries) cannot hide.
test:
	$(GO) test -shuffle=on ./...

test-short:
	$(GO) test -short ./...

# The round driver's worker pool (eval/driver.go: every materialized and
# streamed fixpoint round; maintenance passes run on the writer's goroutine
# under the readers' feet), the obs span/metrics layer, the
# snapshot/result-cache serving path and the HTTP server are only
# trustworthy race-detector clean; vet runs first so the race build never
# masks a static diagnostic.
race:
	$(GO) vet ./internal/obs ./internal/eval ./internal/server
	$(GO) test -race ./...

# ROADMAP needle 2 ("the least code"): the non-test line counts of the
# three biggest packages, and the number of exported functions and methods of
# internal/eval (so X/XOpts twins cannot quietly come back), may not pass the
# ceilings the last shrinking PR left behind. Raise one only in a PR that
# says what the new lines or names buy.
EVAL_SIZE_MAX = 5459
SERVER_SIZE_MAX = 1025
STORAGE_SIZE_MAX = 1894
EVAL_SURFACE_MAX = 51
size:
	@for row in internal/eval:$(EVAL_SIZE_MAX) internal/server:$(SERVER_SIZE_MAX) internal/storage:$(STORAGE_SIZE_MAX); do \
		pkg=$${row%:*}; max=$${row#*:}; \
		n=$$(ls $$pkg/*.go | grep -v _test | xargs cat | wc -l); \
		echo "$$pkg: $$n non-test lines (ceiling $$max)"; \
		test $$n -le $$max || exit 1; \
	done
	@n=$$(ls internal/eval/*.go | grep -v _test | xargs grep -hE '^func (\([a-z]+ \*?[A-Z][A-Za-z]*\) )?[A-Z]' | wc -l); \
		echo "internal/eval: $$n exported functions and methods (ceiling $(EVAL_SURFACE_MAX))"; \
		test $$n -le $(EVAL_SURFACE_MAX)

# Full pre-merge gate: build, vet, shuffled tests, race detector and the
# size ceilings. Nothing it reaches asserts on wall-clock time.
verify: build vet test race size

cover:
	$(GO) test -cover ./...

# One benchmark per paper figure/example/experiment lives in bench_test.go;
# per-package micro-benchmarks live next to their packages.
bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every storage/eval benchmark, and the tiny-scale run of
# every bench workload in both modes: catches benchmarks that no longer
# compile, crash or answer wrongly, cheap enough for CI. Performance itself
# is measured by `go run ./bench` against BENCHMARK.json (bench/README.md).
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -benchmem ./internal/storage ./internal/eval
	$(GO) test -count=1 ./bench

# End-to-end observability smoke: dlrun emits a -trace-json span tree that
# the schema-checking CLI test validates, plus the -serve endpoint test and
# the span-tree goldens. The dlserve debug test then drives the request-
# scoped surface against the built binary: /debug/queries, the slow ring
# (a 1ns threshold forces a query into it, sampled span tree attached),
# /statz percentiles, /readyz and the structured startup/request log. The
# journal/sampler unit suite runs under -race with the AllocsPerRun gate
# pinning the unsampled hot path at zero allocations.
obs-smoke:
	$(GO) test -run 'TestCLIDlrunTraceJSON|TestCLIDlrunServe|TestCLIDlserveDebugEndpoints' -count=1 .
	$(GO) test -run 'TestSpanTreeGolden' -count=1 ./internal/eval
	$(GO) test -race -run 'TestJournal|TestSampler|TestMountJournal|TestQuantile|TestPrometheusHistogramExposition|TestBuildInfo|TestStatz' -count=1 ./internal/obs
	$(GO) test -run 'TestSlowQueryJournalEndToEnd|TestInflightStreamedQuery|TestReadyz|TestRequestID|TestStructured' -count=1 ./internal/server

# End-to-end serving smoke: build dlserve, query it over HTTP (cold, warm,
# write, re-query, streamed NDJSON) and assert the result-cache and serving
# metrics moved.
serve-smoke:
	$(GO) test -run 'TestCLIDlserveSmoke' -count=1 .
	$(GO) test -run 'TestServer' -count=1 ./internal/server

# Regenerate the full experiment report (paper claim vs measured).
experiments:
	$(GO) run ./cmd/dlbench | tee dlbench_output.txt

experiments-quick:
	$(GO) run ./cmd/dlbench -quick

fuzz:
	$(GO) test -fuzz FuzzParseProgram -fuzztime 30s ./internal/parser/
	$(GO) test -fuzz FuzzRelationDiff -fuzztime 30s ./internal/storage/

clean:
	$(GO) clean ./...
