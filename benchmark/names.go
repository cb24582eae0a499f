package main

import "slices"

// The benchmark's vocabulary: every workload and metric name, with unit,
// direction and regression bound. BENCHMARK.json at the repo root carries
// the same lists (names_test.go pins the two to each other); later issues
// quote these names when they predict or claim a movement.

// metricDef is one metric's contract.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
}

// workloadDef names a workload and records why it was chosen.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"serve_open", "open loop at 300 QPS over loopback HTTP, ~2k samples per query: parse, cache, plan, modulation and JSON do the work, the kernel under a quarter"},
	{"scan_heavy", "closed loop in-process, ~0.43M samples per query on two 4M-row (32 MB) tables: RNG fill, gather and accumulate are over 80% of the time"},
	{"filtered_mmap", "closed loop in-process over 16 mmap-ed ISLB files with drifting block means: fused filtered gather, zone-map pruning, HT SUM/COUNT"},
	{"shard_scatter", "closed loop over a 4-worker sharded table, 70% warm and 30% cold seeds: gob, RPC round trips and plan-cache writes do the work"},
}

// endToEnd lists the gated metrics, measured with tracing off. Bound is the
// share of the parent's median by which the driver lets the metric worsen;
// it has to cover three times the metric's spread over runs on different
// seeds (README, "Bounds"), so it is wider than what -compare applies to
// runs on one seed (compareBound). The issue's four timings are not here:
// on the reference box no whole-window timing repeats within a quarter, so
// they are per-layer metrics (timings below).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"samples_per_query", "count", "lower", 0.10},
	{"ci_coverage", "ratio", "higher", 0.20},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// timings are the four client-observed timings the issue listed end to end,
// under the per-layer names they are reported by. -repeat and -compare
// still list and judge them beside the gated metrics.
var timings = []string{"load.latency_p50_ms", "load.latency_p95_ms", "load.throughput_qps", "load.cpu_ms_per_query"}

// perLayer lists the ungated ledger, measured in the traced run from
// outside the layers. A value of 0 on a workload that does not exercise the
// layer means "not applicable here".
var perLayer = []metricDef{
	{Name: "query.parse_us", Unit: "us", Better: "lower"},
	{Name: "query.compile_interval_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_self_us", Unit: "us", Better: "lower"},
	{Name: "serve.transport_us", Unit: "us", Better: "lower"},
	{Name: "serve.response_bytes", Unit: "count", Better: "lower"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.timed_out", Unit: "count", Better: "lower"},
	{Name: "engine.execute_self_us", Unit: "us", Better: "lower"},
	{Name: "engine.allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "engine.bytes_per_query", Unit: "count", Better: "lower"},
	{Name: "plancache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "plancache.evictions", Unit: "count", Better: "lower"},
	{Name: "plancache.get_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "plancache.miss_build_us", Unit: "us", Better: "lower"},
	{Name: "core.pilot_us", Unit: "us", Better: "lower"},
	{Name: "core.pilot_samples", Unit: "count", Better: "lower"},
	{Name: "core.plan_us", Unit: "us", Better: "lower"},
	{Name: "core.calc_us", Unit: "us", Better: "lower"},
	{Name: "core.calc_samples", Unit: "count", Better: "lower"},
	{Name: "core.calc_self_us", Unit: "us", Better: "lower"},
	{Name: "core.summarize_us", Unit: "us", Better: "lower"},
	{Name: "exec.dispatch_us_per_task", Unit: "us", Better: "lower"},
	{Name: "block.mem.sample_ns", Unit: "ns", Better: "lower"},
	{Name: "block.mmap.sample_ns", Unit: "ns", Better: "lower"},
	{Name: "block.pread.sample_ns", Unit: "ns", Better: "lower"},
	{Name: "block.gather_ns", Unit: "ns", Better: "lower"},
	{Name: "block.mem.filtered_ns_per_draw", Unit: "ns", Better: "lower"},
	{Name: "block.mmap.filtered_ns_per_draw", Unit: "ns", Better: "lower"},
	{Name: "block.filter_accept_ratio", Unit: "ratio", Better: "higher"},
	{Name: "block.pruned_block_ratio", Unit: "ratio", Better: "higher"},
	{Name: "block.pruned_draw_ratio", Unit: "ratio", Better: "higher"},
	{Name: "block.mmap.open_ms", Unit: "ms", Better: "lower"},
	{Name: "block.pread.open_ms", Unit: "ms", Better: "lower"},
	{Name: "block.bytes_touched_per_query", Unit: "count", Better: "lower"},
	{Name: "stats.rng_fill_ns", Unit: "ns", Better: "lower"},
	{Name: "stats.moments_add_ns", Unit: "ns", Better: "lower"},
	{Name: "leverage.add_shifted_ns", Unit: "ns", Better: "lower"},
	{Name: "modulate.run_us", Unit: "us", Better: "lower"},
	{Name: "modulate.iterations_per_block", Unit: "count", Better: "lower"},
	{Name: "group.query_us_per_group", Unit: "us", Better: "lower"},
	{Name: "cluster.rpc_roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "cluster.pilot_us", Unit: "us", Better: "lower"},
	{Name: "cluster.calc_us", Unit: "us", Better: "lower"},
	{Name: "cluster.overhead_us", Unit: "us", Better: "lower"},
	{Name: "cluster.gob_us_per_rpc", Unit: "us", Better: "lower"},
	{Name: "cluster.wire_bytes_per_query", Unit: "count", Better: "lower"},
	{Name: "cluster.conn_writes_per_query", Unit: "count", Better: "lower"},
	{Name: "load.fail_ratio", Unit: "ratio", Better: "lower"},
	{Name: "load.lateness_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "load.dropped", Unit: "count", Better: "lower"},
	{Name: "load.latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "load.latency_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "load.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "load.throughput_qps", Unit: "1/s", Better: "higher"},
	{Name: "load.cpu_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "load.sweep.p95_ms_at_150", Unit: "ms", Better: "lower"},
	{Name: "load.sweep.p95_ms_at_300", Unit: "ms", Better: "lower"},
	{Name: "load.sweep.p95_ms_at_600", Unit: "ms", Better: "lower"},
	{Name: "load.sweep.p95_ms_at_1200", Unit: "ms", Better: "lower"},
	{Name: "load.knee_qps", Unit: "1/s", Better: "higher"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.heap_inuse_mb", Unit: "MB", Better: "lower"},
	{Name: "workload.datagen_s", Unit: "s", Better: "lower"},
	{Name: "env.spin_score_drift", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

// failRatio is the issue's ninth end-to-end metric. It is 0 on a healthy
// system and the driver's contract admits no end-to-end metric that can be
// 0, so a run's result line carries it as failed / attempted (and fails the
// run when it is not 0), BENCHMARK.json lists the traced pass's as
// load.fail_ratio, and the suite summary and -compare report the end-to-end
// pass's under this name.
var failRatio = metricDef{"fail_ratio", "ratio", "lower", 0}

// reported is what the suite summary and -compare list as end to end: the
// gated metrics, fail_ratio and the four timings.
func reported() []metricDef {
	out := append(slices.Clone(endToEnd), failRatio)
	for _, d := range perLayer {
		if slices.Contains(timings, d.Name) {
			out = append(out, d)
		}
	}
	return out
}

// compareBound is the bound -compare applies to an end-to-end metric: the
// issue's, not BENCHMARK.json's. The driver behind BENCHMARK.json compares
// runs on different seeds, so its bounds have to cover the spread across
// seeds; -compare reads two -repeat documents of one seed, where the counts
// repeat exactly and a timing's spread is the machine's alone. absolute
// means the bound is in the metric's unit rather than a share of the old
// median.
func compareBound(name string) (bound float64, absolute bool) {
	switch name {
	case "samples_per_query":
		return 0, false
	case "fail_ratio":
		return 0, true
	case "ci_coverage":
		return 0.03, true
	}
	return 0.10, false
}

// sweepRates are the fixed open-loop rates of the traced run's ladder.
var sweepRates = []int{150, 300, 600, 1200}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}
