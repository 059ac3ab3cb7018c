package main

import "strings"

// The metric tables: the names and units BENCHMARK.json declares. An untraced
// run reports every end-to-end metric on every workload, a traced run every
// per-layer metric; a layer a workload never enters reports 0 there, which is
// the "this workload bypasses it" half of each prediction in README.md.

type metricDef struct {
	name, unit string
	// End-to-end metrics only: which direction is better, and the share of
	// the baseline's median by which a change may worsen the metric before
	// -compare calls it a regression (BENCHMARK.json carries the same bound).
	better string
	bound  float64
	// best says the run reports its best repetition (lowest latency, highest
	// throughput) rather than the median one. On a shared box interference
	// only ever adds time, and it comes in spells of a few seconds: the
	// repetitions' median moves by 20% between runs of the same commit, the
	// best repetition by about 1%. Every repetition does the same work, so
	// the best one is the least disturbed, not the luckiest.
	best bool
}

// endToEndMetrics are what a user of the system sees. op_p50_us is the median
// latency of the workload's operation: a /query round trip on the served
// workloads (per class, combined by geometric mean; to the done line on
// stream_firstk), source text to compiled plan on classify_corpus.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25, false},
	{"op_p50_us", "us", "lower", 0.20, true},
	{"ops_per_s", "1/s", "higher", 0.20, true},
	{"allocs_per_op", "count", "lower", 0.05, false},
	{"bytes_per_op", "bytes", "lower", 0.10, false},
	{"live_heap_mb", "MB", "lower", 0.15, false},
}

// perLayerSpec lists the per-layer metrics as "name unit"; <c> stands for
// each plan class in turn. Layers are this repository's modules.
var perLayerSpec = []string{
	"parser.parse_query_us us",
	"parser.parse_program_us us",
	"classify.classify_us us",
	"rewrite.expand_us us",
	"plan.symbolic_us us",
	"eval.plan.compile_us us",
	"eval.plan.cache_hit_share share",
	"eval.fixpoint.<c>.answer_us us",
	"eval.fixpoint.<c>.visited_per_op count",
	"eval.fixpoint.<c>.derived_per_op count",
	"eval.fixpoint.<c>.rounds_per_op count",
	"eval.fixpoint.<c>.allocs_per_op count",
	"eval.fixpoint.derived_share share",
	"eval.shard.auto_sharded_share share",
	"eval.shard.exchanged_per_op count",
	"eval.stream.<c>.first_row_us us",
	"eval.stream.<c>.derived_per_op count",
	"eval.stream.early_exit_share share",
	"eval.maintain.<c>.maintain_us us",
	"eval.maintain.maintained_share share",
	"eval.resultcache.hit_share share",
	"eval.resultcache.lookup_us us",
	"eval.resultcache.bytes bytes",
	"eval.resultcache.evictions count",
	"storage.scan_facts_us_per_kfact us",
	"storage.insert_us_per_ktuple us",
	"storage.index_build_us us",
	"storage.dedup_probes_per_op count",
	"storage.csr_builds_per_op count",
	"storage.snapshot_us us",
	"storage.diff_us us",
	"storage.size_bytes bytes",
	"server.query_hit_us us",
	"server.query_miss_us us",
	"server.load_facts_us us",
	"server.stream_query_us us",
	"server.encode_us us",
	"server.encode_bytes_per_op bytes",
	"http.query_p50_us us",
	"http.query_p99_us us",
	"http.write_p50_us us",
	"http.first_row_p50_us us",
	"http.query_overhead_us us",
	"http.facts_overhead_us us",
	"http.first_row_overhead_us us",
	"obs.server_errors count",
	"obs.client_errors count",
	"bench.trace_overhead_share share",
	"bench.client_self_us us",
}

var perLayerMetrics = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	for _, spec := range perLayerSpec {
		name, unit, _ := strings.Cut(spec, " ")
		if !strings.Contains(name, "<c>") {
			defs = append(defs, metricDef{name: name, unit: unit})
			continue
		}
		for _, c := range classNames {
			defs = append(defs, metricDef{name: strings.Replace(name, "<c>", c, 1), unit: unit})
		}
	}
	return defs
}
