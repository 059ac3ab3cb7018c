# Reproduction of Youn, Henschen & Han, SIGMOD 1988.
# Everything is stdlib-only Go; the module works fully offline.

GO ?= go

.PHONY: all build vet test test-short race eval-size verify cover bench bench-smoke obs-smoke serve-smoke shard-smoke plan-smoke experiments fuzz clean

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

# The round driver's worker pool (eval/driver.go: every parallel, sharded,
# streamed and TC-compose round), the stable evaluator's frontier fan-out,
# the obs span/metrics layer, the snapshot/result-cache serving path and the
# HTTP server are only trustworthy race-detector clean; vet runs first so
# the race build never masks a static diagnostic.
race:
	$(GO) vet ./internal/obs ./internal/eval ./internal/server
	$(GO) test -race ./...
	$(GO) test -race -run 'Sharded|ChooseShards|ShardOf|PartitionTuplesByHash' -count=1 ./internal/eval ./internal/storage

# ROADMAP needle 2 ("the least code"): internal/eval's non-test line count
# may not grow past the ceiling the one-round-driver refactor left behind.
# Raise EVAL_SIZE_MAX only in a PR that says what the new lines buy.
EVAL_SIZE_MAX = 6328
eval-size:
	@n=$$(ls internal/eval/*.go | grep -v _test | xargs cat | wc -l); \
	echo "internal/eval: $$n non-test lines (ceiling $(EVAL_SIZE_MAX))"; \
	test $$n -le $(EVAL_SIZE_MAX)

# Full pre-merge gate: build, vet, shuffled tests, race detector, shard
# and cost-planner smokes, and the eval size ceiling.
verify: build vet test race shard-smoke plan-smoke eval-size

cover:
	$(GO) test -cover ./...

# One benchmark per paper figure/example/experiment lives in bench_test.go;
# per-package micro-benchmarks live next to their packages.
bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every storage/eval benchmark: catches benchmarks that
# no longer compile or crash, cheap enough for CI.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -benchmem ./internal/storage ./internal/eval
	@t=$$(mktemp -d) && cp BENCH_serve.json $$t/ 2>/dev/null; \
	$(GO) build -o $$t/dlbench ./cmd/dlbench && (cd $$t && ./dlbench -experiment q12 -quick); \
	rc=$$?; rm -rf $$t; exit $$rc

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
# metrics moved. The quick Q9 sweep then gates the serving-path latencies:
# warm cached queries must stay within 3x of the committed BENCH_serve.json
# baseline, and maintained post-write queries must stay >=3x cheaper than
# cold-start recompute. The quick Q10 sweep gates the streaming path:
# limit-k and bound-target queries must derive >=5x less than full
# materialization and the first rows must arrive >=2x sooner. Both run in a
# scratch directory (seeded with the committed baseline) so the committed
# full-mode report is never overwritten.
serve-smoke:
	$(GO) test -run 'TestCLIDlserveSmoke' -count=1 .
	$(GO) test -run 'TestServer' -count=1 ./internal/server
	@t=$$(mktemp -d) && cp BENCH_serve.json $$t/ 2>/dev/null; \
	$(GO) build -o $$t/dlbench ./cmd/dlbench && (cd $$t && ./dlbench -experiment q9 -quick && ./dlbench -experiment q10 -quick); \
	rc=$$?; rm -rf $$t; exit $$rc

# Cost-planner smoke: the differential suite (compiled orders tuple-
# identical to greedy across engines, negation strata and the auto
# planner) plus cost-model/stats-epoch units, then the quick Q12 skew
# sweep in a scratch directory — the >=3x fewer-visits gate is counted
# in tuples visited, so it is machine-independent.
plan-smoke:
	$(GO) test -run 'TestCostModelSkew|TestCompiledOrdersMatchGreedy|TestPlanCacheStatsEpoch|TestAutoPlanReportsCost|TestColCardinalityContract|TestColStats|TestStatsEpochAdvances' -count=1 ./internal/eval ./internal/storage
	@t=$$(mktemp -d) && cp BENCH_serve.json $$t/ 2>/dev/null; \
	$(GO) build -o $$t/dlbench ./cmd/dlbench && (cd $$t && ./dlbench -experiment q12 -quick); \
	rc=$$?; rm -rf $$t; exit $$rc

# Sharded-fixpoint smoke: the differential suite under the race detector
# (sharded answers byte-identical to sequential semi-naive, partitioner
# exactness), then the quick Q11 scale-out sweep in a scratch directory.
# Q11's own gates are CPU-aware: the >=2x speedup at 4 shards is enforced
# on hosts with GOMAXPROCS >= 4 and skipped (sweep still recorded) on
# smaller machines, where logical shards cannot beat physical cores.
shard-smoke:
	$(GO) test -race -run 'Sharded|ShardOf|PartitionTuplesByHash' -count=1 ./internal/eval ./internal/storage
	@t=$$(mktemp -d) && cp BENCH_serve.json $$t/ 2>/dev/null; \
	$(GO) build -o $$t/dlbench ./cmd/dlbench && (cd $$t && ./dlbench -experiment q11 -quick); \
	rc=$$?; rm -rf $$t; exit $$rc

# Regenerate the full experiment report (paper claim vs measured).
experiments:
	$(GO) run ./cmd/dlbench | tee dlbench_output.txt

experiments-quick:
	$(GO) run ./cmd/dlbench -quick

fuzz:
	$(GO) test -fuzz FuzzParseProgram -fuzztime 30s ./internal/parser/

clean:
	$(GO) clean ./...
