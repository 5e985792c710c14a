package main

import "encoding/json"

// metricSpec names one metric of the benchmark. The tables below are the
// single source for the harness; BENCHMARK.json at the root of the repo
// repeats them for the driver and TestBenchmarkJSONMatchesSpec keeps the two
// in step.
type metricSpec struct {
	name   string
	unit   string
	better string
	// bound is the share of the reference value by which an end-to-end
	// metric may get worse before -compare (and the driver) call it a
	// regression. Per-layer metrics carry no bound.
	bound float64
}

// endToEnd lists what a user of the system sees, reported with tracing off.
// Modeled disk latency is deliberately absent: it is pages x a constant, and
// folding it into latency is what hid the LBC CPU drift between BENCH_5 and
// BENCH_7. failed_share is carried by the result line's attempted/failed
// pair and pages_per_query is storage.pages_per_query in the per-layer
// table, because an end-to-end metric may never read 0 and both do (see
// README.md). Every bound is the contract's maximum: on the shared two-core
// sandbox the same binary on the same inputs moves by 5-15% from run to run
// (README.md, "Noise"), so a tighter bound would reject unchanged code.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_qps", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_query", "ms", "lower", 0.25},
	{"initial_ms_p50", "ms", "lower", 0.25},
}

// perLayer lists the ledger of single layers, reported by the traced pass.
// Layer names are the repo's modules. A layer the workload bypasses reports
// 0 (no skylineserve child: serve.* = 0; no distance cache: distcache hit
// rate 0, and so on).
var perLayer = []metricSpec{
	{"serve.overhead_ms_p50", "ms", "lower", 0},
	{"serve.snap_us_per_point", "us", "lower", 0},
	{"serve.response_kb_p50", "kB", "lower", 0},
	{"serve.rejected_share", "ratio", "lower", 0},

	{"pool.overhead_us_p50", "us", "lower", 0},
	{"pool.queue_wait_ms_p95", "ms", "lower", 0},
	{"pool.saturated", "count", "lower", 0},

	{"engine.overhead_us_p50", "us", "lower", 0},
	{"engine.allocs_per_query", "count", "lower", 0},
	{"engine.alloc_kb_per_query", "kB", "lower", 0},
	{"engine.first_point_ms_p50", "ms", "lower", 0},
	{"engine.first5_close_ms_p50", "ms", "lower", 0},

	{"core.ce_ms_p50", "ms", "lower", 0},
	{"core.edc_ms_p50", "ms", "lower", 0},
	{"core.lbc_ms_p50", "ms", "lower", 0},
	{"core.ce_candidates", "count", "lower", 0},
	{"core.edc_candidates", "count", "lower", 0},
	{"core.lbc_candidates", "count", "lower", 0},
	{"core.ce_nodes_expanded", "count", "lower", 0},
	{"core.edc_nodes_expanded", "count", "lower", 0},
	{"core.lbc_nodes_expanded", "count", "lower", 0},
	{"core.ce_dist_computations", "count", "lower", 0},
	{"core.edc_dist_computations", "count", "lower", 0},
	{"core.lbc_dist_computations", "count", "lower", 0},
	{"core.skyline_points", "count", "higher", 0},

	{"sp.dijkstra_ns_per_settle", "ns", "lower", 0},
	{"sp.astar_ns_per_settle", "ns", "lower", 0},
	{"sp.astar_euclid_ns_per_settle", "ns", "lower", 0},
	{"sp.astar_settles_alt_over_euclid", "ratio", "lower", 0},
	{"sp.share_of_core_pct", "%", "lower", 0},

	{"landmark.bound_ns", "ns", "lower", 0},
	{"landmark.win_rate", "ratio", "higher", 0},
	{"landmark.build_ms", "ms", "lower", 0},

	{"pqueue.dense_ns_per_pushpop", "ns", "lower", 0},

	{"rtree.bbs_ms_p50", "ms", "lower", 0},
	{"rtree.nn_us_per_result", "us", "lower", 0},
	{"rtree.nodes_per_query", "count", "lower", 0},
	{"rtree.build_ms", "ms", "lower", 0},

	{"skyline.dominance_ns", "ns", "lower", 0},
	{"skyline.bnl_ms_per_1k", "ms", "lower", 0},

	{"middlelayer.objects_on_ns", "ns", "lower", 0},
	{"middlelayer.calls_per_query", "count", "lower", 0},
	{"bptree.pages_per_lookup", "pages", "lower", 0},

	{"diskgraph.neighbors_ns", "ns", "lower", 0},
	{"diskgraph.calls_per_query", "count", "lower", 0},
	{"diskgraph.pages", "pages", "lower", 0},

	{"storage.pages_per_query", "pages", "lower", 0},
	{"storage.get_ns_hit", "ns", "lower", 0},
	{"storage.get_ns_miss", "ns", "lower", 0},
	{"storage.hit_rate", "ratio", "higher", 0},
	{"storage.gets_per_query", "count", "lower", 0},
	{"storage.build_ms", "ms", "lower", 0},
	{"storage.open_ms", "ms", "lower", 0},
	{"storage.dir_mb", "MB", "lower", 0},

	{"distcache.hit_rate", "ratio", "higher", 0},
	{"distcache.get_us", "us", "lower", 0},
	{"distcache.put_us", "us", "lower", 0},
	{"distcache.restore_us", "us", "lower", 0},
	{"distcache.evictions", "count", "lower", 0},
	{"distcache.wavefront_share_rate", "ratio", "higher", 0},

	{"obs.trace_overhead_pct", "%", "lower", 0},

	{"process.peak_rss_mb", "MB", "lower", 0},
	{"process.gc_cpu_pct", "%", "lower", 0},
	{"loadgen.lag_ms_p95", "ms", "lower", 0},
	{"harness.trace_overhead_pct", "%", "lower", 0},
}

// exactPerLayer are the counters that repeat exactly from run to run of the
// same code on the same seed; -compare requires equality for them.
// storage.pages_per_query is exact only where every query starts cold
// (paper_cold); compare.go adds that pairing itself.
var exactPerLayer = []string{
	"core.ce_candidates", "core.edc_candidates", "core.lbc_candidates",
	"core.ce_nodes_expanded", "core.edc_nodes_expanded", "core.lbc_nodes_expanded",
	"core.ce_dist_computations", "core.edc_dist_computations", "core.lbc_dist_computations",
	"core.skyline_points",
}

// defaultSeconds is run_seconds of BENCHMARK.json: how long one run measures.
const defaultSeconds = 10

// benchmarkJSON renders BENCHMARK.json from the tables above and the
// workload list.
func benchmarkJSON() string {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metricJSON struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	f := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []metricJSON   `json:"end_to_end"`
		PerLayer   []metricJSON   `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: defaultSeconds}
	for _, w := range workloads(1, false) {
		f.Workloads = append(f.Workloads, workloadJSON{w.name, w.why})
	}
	for _, s := range endToEnd {
		bound := s.bound
		f.EndToEnd = append(f.EndToEnd, metricJSON{s.name, s.unit, s.better, &bound})
	}
	for _, s := range perLayer {
		f.PerLayer = append(f.PerLayer, metricJSON{s.name, s.unit, s.better, nil})
	}
	b, _ := json.MarshalIndent(f, "", "  ")
	return string(b)
}
