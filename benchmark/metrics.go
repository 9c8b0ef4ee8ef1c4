package main

// metricDef names one metric and its unit. The two lists below are the
// benchmark's contract with BENCHMARK.json: a run without tracing prints
// exactly the endToEnd names, a traced run exactly the perLayer names
// (harness_test.go holds the lists and the JSON file to each other).
type metricDef struct {
	Name string
	Unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"queries_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p95_us", "us"},
	{"cpu_us_per_query", "us"},
	{"peak_rss_mb", "MB"},
	{"econ_cost_vs_bypass", "ratio"},
	{"econ_resp_vs_bypass", "ratio"},
}

// A layer metric that does not exist on a workload (router.* without a
// router, wire.* on the HTTP front, sim.* on a served path) reads 0 there.
var perLayer = []metricDef{
	{"workload.gen_ns_per_query", "ns"},

	{"optimizer.enumerate_ns_per_query", "ns"},
	{"optimizer.plans_per_query", "count"},

	{"scheme.handle_ns_per_query", "ns"},
	{"economy.self_ns_per_query", "ns"},
	{"economy.investments_per_kq", "count"},
	{"economy.evictions_per_kq", "count"},
	{"economy.declined_share", "ratio"},
	{"cache.answered_share", "ratio"},
	{"cache.resident_gb_final", "GB"},

	{"sim.loop_self_ns_per_query", "ns"},
	{"experiments.grid_speedup", "ratio"},

	{"server.engine_ns_p50", "ns"},
	{"server.mailbox_wait_ns_p50", "ns"},
	{"server.decide_ns_p50", "ns"},
	{"server.handoff_self_ns", "ns"},
	{"server.stats_us", "us"},
	{"server.checkpoint_ms", "ms"},

	{"persist.encode_ms", "ms"},
	{"persist.snapshot_bytes", "bytes"},

	{"wire.encode_ns_per_query", "ns"},
	{"wire.decode_ns_per_query", "ns"},
	{"wire.front_self_ns", "ns"},
	{"wire.writes_per_query", "count"},
	{"wire.reads_per_query", "count"},
	{"wire.bytes_per_query", "bytes"},

	{"router.hop_self_ns", "ns"},
	{"router.backend_frames_per_batch", "count"},
	{"router.migrate_blackout_ms", "ms"},

	{"http.handler_ns", "ns"},
	{"http.front_self_ns", "ns"},
	{"http.stats_us", "us"},
	{"http.metrics_us", "us"},
	{"http.trace_us", "us"},
	{"http.bytes_per_query", "bytes"},

	{"obs.trace_overhead_pct", "%"},
	{"obs.journal_events_per_kq", "count"},

	{"process.allocs_per_query", "count"},
	{"process.gc_cycles", "count"},
	{"process.gc_pause_ms_total", "ms"},
	{"client.latency_p99_us", "us"},
	{"client.latency_p999_us", "us"},
	{"client.latency_max_us", "us"},
	{"harness.window_spread_pct", "%"},
	{"harness.steal_pct", "%"},
	{"harness.calib_us", "us"},
	{"harness.layer_sum_gap_pct", "%"},
}

var workloadNames = []string{"sim-paper", "wire-single", "routed-batch", "http-mixed"}
