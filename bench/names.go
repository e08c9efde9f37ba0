package main

import "strings"

// The benchmark's vocabulary: workload names, end-to-end metrics with
// their units, directions and regression bounds, and per-layer metrics
// with their units. BENCHMARK.json at the repository root repeats these
// lists for the driver; TestBenchmarkJSONMatchesHarness keeps the two
// identical.

// metricDef describes one metric the harness emits.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the parent's median it may worsen by; 0 for per-layer metrics
}

// workloadDef names a workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{"paper_warm", "Figure 4 on the default route: prepared Q1-Q4 standard/CERTAIN pairs, plan cache warm, one core; eval does >95% of the work, so executor changes show here and front-end changes must not"},
	{"paper_sharded", "same instance, statements and draws at Shards 4 / Parallelism 2: the only workload on both cores and the scatter-gather path, where CERTAIN Q4 is about 3.5x slower than unsharded"},
	{"unify_raw", "the paper's section-7 confused-optimizer case: NoOrSplit leaves raw A = B OR B IS NULL edges as nested loops, so raw Q4+ costs ~250 ms against ~2 ms standard; Q1-Q3 are the control group"},
	{"frontend_cold", "ad-hoc statements that bypass the plan cache on the smallest instance: parse, compile, analyze, translate and plan are 41% of an op here against under 1% elsewhere, so front-end changes show here"},
	{"served_rw", "certsqld in process behind a loopback listener with a durable store: each cycle one fsynced /v1/load, then three rounds of Q1-Q4 pairs, so a load invalidates plans and statistics beside the reads"},
}

// The end-to-end metrics and their regression bounds; every workload
// reports all of them. They are the numbers that ten seeds spread by
// less than their bound in every calibration made on the shared
// two-core sandbox (README, "Calibration"): two exact counts, the paired
// price of correctness, the tail latency, and set-up time, which the
// driver requires. The two timings are probe-normalised (probe.go) and
// carry the widest bound the driver accepts.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"certain_p95_ms", "ms", "lower", 0.25},
	{"price_of_correctness", "ratio", "lower", 0.15},
	{"alloc_kb_per_op", "KiB", "lower", 0.08},
	{"cost_units_per_op", "count", "lower", 0.08},
}

// diagDefs are the timings that gate nothing. The first five are the
// other timings ISSUE 13 wanted as end-to-end gates, probe-normalised
// like certain_p95_ms: over ten seeds each of them spread by more than a
// quarter, the driver's ceiling for a bound, on some workload in some
// calibration, so by the issue's own rule they are demoted for every
// workload. The rest are all seven timings as the clock measured them,
// before normalisation. Both kinds are in every report's "diag" object,
// among the per-layer metrics of a traced run, and in the -agree and
// -calibrate tables.
var diagDefs = []metricDef{
	{Name: "diag.throughput_qps", Unit: "1/s", Better: "higher"},
	{Name: "diag.q1_certain_ms", Unit: "ms", Better: "lower"},
	{Name: "diag.q2_certain_ms", Unit: "ms", Better: "lower"},
	{Name: "diag.q3_certain_ms", Unit: "ms", Better: "lower"},
	{Name: "diag.q4_certain_ms", Unit: "ms", Better: "lower"},
	{Name: "diag.setup_raw_s", Unit: "s", Better: "lower"},
	{Name: "diag.throughput_raw_qps", Unit: "1/s", Better: "higher"},
	{Name: "diag.q1_certain_raw_ms", Unit: "ms", Better: "lower"},
	{Name: "diag.q2_certain_raw_ms", Unit: "ms", Better: "lower"},
	{Name: "diag.q3_certain_raw_ms", Unit: "ms", Better: "lower"},
	{Name: "diag.q4_certain_raw_ms", Unit: "ms", Better: "lower"},
	{Name: "diag.certain_p95_raw_ms", Unit: "ms", Better: "lower"},
}

// reportedDefs lists the gated metrics followed by the diag timings: the
// rows of the -agree and -calibrate tables.
func reportedDefs() []metricDef {
	return append(append([]metricDef{}, endToEndDefs...), diagDefs...)
}

// Per-layer metrics, prefixed with the layer (module) they measure. A
// workload a metric does not apply to reports 0 for it.
var perLayerDefs = append([]metricDef{
	{Name: "sql.parse_us", Unit: "us", Better: "lower"},
	{Name: "compile.compile_us", Unit: "us", Better: "lower"},
	{Name: "analyze.plan_us", Unit: "us", Better: "lower"},
	{Name: "certain.translate_us", Unit: "us", Better: "lower"},
	{Name: "plan.optimize_us", Unit: "us", Better: "lower"},
	{Name: "stats.collect_warm_us", Unit: "us", Better: "lower"},
	{Name: "stats.collect_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "plancache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "plancache.get_us", Unit: "us", Better: "lower"},

	{Name: "eval.q1_orig_ms", Unit: "ms", Better: "lower"},
	{Name: "eval.q2_orig_ms", Unit: "ms", Better: "lower"},
	{Name: "eval.q3_orig_ms", Unit: "ms", Better: "lower"},
	{Name: "eval.q4_orig_ms", Unit: "ms", Better: "lower"},
	{Name: "eval.q1_plus_ms", Unit: "ms", Better: "lower"},
	{Name: "eval.q2_plus_ms", Unit: "ms", Better: "lower"},
	{Name: "eval.q3_plus_ms", Unit: "ms", Better: "lower"},
	{Name: "eval.q4_plus_ms", Unit: "ms", Better: "lower"},
	{Name: "eval.q1_orig_cost_units", Unit: "count", Better: "lower"},
	{Name: "eval.q2_orig_cost_units", Unit: "count", Better: "lower"},
	{Name: "eval.q3_orig_cost_units", Unit: "count", Better: "lower"},
	{Name: "eval.q4_orig_cost_units", Unit: "count", Better: "lower"},
	{Name: "eval.q1_plus_cost_units", Unit: "count", Better: "lower"},
	{Name: "eval.q2_plus_cost_units", Unit: "count", Better: "lower"},
	{Name: "eval.q3_plus_cost_units", Unit: "count", Better: "lower"},
	{Name: "eval.q4_plus_cost_units", Unit: "count", Better: "lower"},
	{Name: "eval.q1_plus_rows", Unit: "count", Better: "higher"},
	{Name: "eval.q2_plus_rows", Unit: "count", Better: "higher"},
	{Name: "eval.q3_plus_rows", Unit: "count", Better: "higher"},
	{Name: "eval.q4_plus_rows", Unit: "count", Better: "higher"},
	{Name: "eval.hash_joins", Unit: "count", Better: "higher"},
	{Name: "eval.nested_loop_joins", Unit: "count", Better: "lower"},
	{Name: "eval.view_cache_hits", Unit: "count", Better: "higher"},
	{Name: "eval.shard_scatters", Unit: "count", Better: "lower"},
	{Name: "eval.mem_highwater_kb", Unit: "KiB", Better: "lower"},
	{Name: "eval.share", Unit: "ratio", Better: "lower"},

	{Name: "shard.q1_k4_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.q2_k4_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.q3_k4_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.q4_k4_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.partition_us", Unit: "us", Better: "lower"},
	{Name: "shard.build_keyed_us", Unit: "us", Better: "lower"},

	{Name: "server.handler_self_ms", Unit: "ms", Better: "lower"},
	{Name: "server.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "server.response_kb", Unit: "KiB", Better: "lower"},
	{Name: "server.client_overhead_ms", Unit: "ms", Better: "lower"},

	{Name: "persist.update_ms", Unit: "ms", Better: "lower"},
	{Name: "persist.update_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "persist.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "persist.wal_bytes_per_row", Unit: "bytes", Better: "lower"},
	{Name: "persist.bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "persist.recovery_ms", Unit: "ms", Better: "lower"},
	{Name: "table.clone_ms", Unit: "ms", Better: "lower"},

	{Name: "tpch.generate_ms", Unit: "ms", Better: "lower"},

	{Name: "gc.cycles", Unit: "count", Better: "lower"},
	{Name: "gc.pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "gc.heap_inuse_mb", Unit: "MB", Better: "lower"},

	{Name: "harness.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "harness.block_spread_pct", Unit: "%", Better: "lower"},
	{Name: "harness.spin_drift_pct", Unit: "%", Better: "lower"},
	{Name: "harness.timed_s", Unit: "s", Better: "lower"},
	{Name: "harness.probe_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.probe_spread_pct", Unit: "%", Better: "lower"},
}, diagDefs...)

// exactPerLayer names the per-layer metrics that are exact counts: two
// runs with one seed must report them bit for bit, and -agree checks it.
func exactPerLayer(name string) bool {
	switch name {
	case "eval.hash_joins", "eval.nested_loop_joins", "eval.view_cache_hits", "eval.shard_scatters":
		return true
	}
	return strings.HasSuffix(name, "_cost_units") || strings.HasSuffix(name, "_plus_rows")
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
