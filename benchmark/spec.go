package main

// The benchmark's contract with BENCHMARK.json: the four workloads, the
// end-to-end metrics every window reports, and the per-layer metrics every
// traced run reports. smoke_test.go checks this file and BENCHMARK.json
// against each other in both directions.

type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the parent's median the metric may worsen by; 0 for per-layer
}

// Every workload names one cheap and one expensive request class; the
// window reports their client-observed quiet latencies as light_quiet_ms and heavy_quiet_ms
// so that all four workloads emit the same metric set.
//
//	workload       light                         heavy
//	console-read   read with a < 512 B reply     read with a >= 4 KB reply
//	console-edit   config write                  first diagnostic after a write
//	review-fresh   ACL write building the set    uncached review
//	ticket-churn   session open                  commit
//
// Times and the rate are quiet-machine figures, see window.go.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"quiet_ops_per_s", "1/s", "higher", 0.20},
	{"light_quiet_ms", "ms", "lower", 0.25},
	{"heavy_quiet_ms", "ms", "lower", 0.20},
	{"reply_bytes_per_op", "B", "lower", 0.05},
}

// Layer = module name; service.http is internal/service/http.go, heimdalld
// is the process plus loopback, engagement is what service calls into
// (core.Engagement and its twin.Session consoles). The *_self_us metrics
// are differences of quiet times between two replay depths of the same ops;
// the rest are leaf calls timed on inputs captured from the workload's
// own tenant (see leaves.go).
var perLayer = []metricSpec{
	{Name: "heimdalld.null_rtt_us", Unit: "us", Better: "lower"},
	{Name: "heimdalld.light_self_us", Unit: "us", Better: "lower"},
	{Name: "heimdalld.heavy_self_us", Unit: "us", Better: "lower"},
	{Name: "heimdalld.light_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "heimdalld.light_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "heimdalld.heavy_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "heimdalld.heavy_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "heimdalld.heavy_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "heimdalld.op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "heimdalld.cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "heimdalld.cpu_user_s", Unit: "s", Better: "lower"},
	{Name: "heimdalld.cpu_sys_s", Unit: "s", Better: "lower"},
	{Name: "heimdalld.rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "service.http.light_self_us", Unit: "us", Better: "lower"},
	{Name: "service.http.heavy_self_us", Unit: "us", Better: "lower"},
	{Name: "service.http.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "service.http.heavy_resp_bytes", Unit: "B", Better: "lower"},
	{Name: "service.light_self_us", Unit: "us", Better: "lower"},
	{Name: "service.heavy_self_us", Unit: "us", Better: "lower"},
	{Name: "service.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "service.review_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "service.review_coalesced_total", Unit: "count", Better: "higher"},
	{Name: "service.pool.do_overhead_us", Unit: "us", Better: "lower"},
	{Name: "service.pool.queue_wait_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "service.pool.backpressure_total", Unit: "count", Better: "lower"},
	{Name: "engagement.light_us", Unit: "us", Better: "lower"},
	{Name: "engagement.heavy_us", Unit: "us", Better: "lower"},
	{Name: "engagement.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "core.start_work_ms", Unit: "ms", Better: "lower"},
	{Name: "core.start_work_self_ms", Unit: "ms", Better: "lower"},
	{Name: "twin.new_ms", Unit: "ms", Better: "lower"},
	{Name: "twin.compute_slice_us", Unit: "us", Better: "lower"},
	{Name: "twin.exec_self_us", Unit: "us", Better: "lower"},
	{Name: "console.parse_us", Unit: "us", Better: "lower"},
	{Name: "console.execute_small_us", Unit: "us", Better: "lower"},
	{Name: "console.execute_large_us", Unit: "us", Better: "lower"},
	{Name: "console.execute_write_us", Unit: "us", Better: "lower"},
	{Name: "console.execute_reread_acl_us", Unit: "us", Better: "lower"},
	{Name: "console.execute_reread_ospf_us", Unit: "us", Better: "lower"},
	{Name: "console.execute_reread_static_us", Unit: "us", Better: "lower"},
	{Name: "privilege.allows_ns", Unit: "ns", Better: "lower"},
	{Name: "privilege.compile_us", Unit: "us", Better: "lower"},
	{Name: "privilege.generate_us", Unit: "us", Better: "lower"},
	{Name: "audit.append_us", Unit: "us", Better: "lower"},
	{Name: "journal.append_us", Unit: "us", Better: "lower"},
	{Name: "enforcer.review_miss_ms", Unit: "ms", Better: "lower"},
	{Name: "enforcer.review_hit_us", Unit: "us", Better: "lower"},
	{Name: "enforcer.review_self_ms", Unit: "ms", Better: "lower"},
	{Name: "enforcer.commit_ms", Unit: "ms", Better: "lower"},
	{Name: "enforcer.commit_self_ms", Unit: "ms", Better: "lower"},
	{Name: "verify.check_ms", Unit: "ms", Better: "lower"},
	{Name: "verify.policies_checked", Unit: "count", Better: "lower"},
	{Name: "verify.affected_ratio", Unit: "ratio", Better: "lower"},
	{Name: "verify.check_affected_ms", Unit: "ms", Better: "lower"},
	{Name: "dataplane.compute_ms", Unit: "ms", Better: "lower"},
	{Name: "dataplane.compute_allocs", Unit: "count", Better: "lower"},
	{Name: "dataplane.derive_ms", Unit: "ms", Better: "lower"},
	{Name: "dataplane.reach_us", Unit: "us", Better: "lower"},
	{Name: "config.diff_network_us", Unit: "us", Better: "lower"},
	{Name: "config.apply_changes_us", Unit: "us", Better: "lower"},
	{Name: "netmodel.clone_ms", Unit: "ms", Better: "lower"},
	{Name: "netmodel.clone_cow_us", Unit: "us", Better: "lower"},
	{Name: "telemetry.counter_inc_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.histogram_observe_ns", Unit: "ns", Better: "lower"},
	{Name: "client.slice_drift_ratio", Unit: "ratio", Better: "higher"},
	{Name: "client.budget_closure_ratio", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}
