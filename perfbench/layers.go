package main

// metricDef describes one reported metric. BENCHMARK.json lists the same
// names, units and directions (a test keeps the two in step); its format
// has no room for the layer-to-metric mapping, so that lives here and in
// the traced run's report.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: allowed worsening, as a share of the parent's median
	moves  string  // per-layer only: the end-to-end metrics it should move
	on     string  // per-layer only: the workloads on which it should move them
}

// endToEnd are the metrics a client or operator of cceserver sees, from the
// untraced run against the real binary, with the worsening each may show
// before a change counts as a regression. They were chosen and bounded on a
// 2-vCPU VM whose speed swings by up to 2.5x over minutes as the host steals
// CPU, so the gated set is what stays steady there: the server's CPU per
// explain relative to the generator's, measured over the same windows, not
// explains per second, and the share of explains within the latency limit,
// not percentiles. The run also prints, ungated, the metrics whose spread
// over ten seeds (IQR over median) exceeded the largest bound the format
// allows or came close to it:
//   - explain_cpu_us, the server's CPU per explain in µs: the host's slow
//     spells raise it by up to 1.9x for the same code (hot_read 31 to 68 µs,
//     cold_read 300 to 634 µs), and the generator's CPU per explain, printed
//     as loadgen.cpu_us, rises with it, so explain_cpu_rel, their ratio, is
//     gated instead (its spread over 17 and 18 seeds across such spells:
//     0.026 on hot_read, 0.082 on cold_read, against 0.13 and 0.11 for
//     explain_cpu_us);
//   - explain_rps (0.07 to 0.29), explain_p50_ms (0.06 to 0.68) and
//     explain_p99_ms (0.45 to 2.1);
//   - observe_p50_ms and observe_p99_ms, on mixed_write only (0.5 to 0.7
//     and 0.23; the read-only workloads take no observes);
//   - ops_failed_ratio, which is 0 on every correct run (it is also the
//     result's failed/attempted).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "explain_cpu_rel", unit: "ratio", better: "lower", bound: 0.25},
	{name: "explain_slo_ok", unit: "share", better: "higher", bound: 0.25},
	{name: "key_size_mean", unit: "features", better: "lower", bound: 0.05},
	{name: "server_peak_rss_mb", unit: "MiB", better: "lower", bound: 0.2},
}

// perLayer are the traced run's metrics: each layer is timed from outside,
// through the Config seams (Solve, Monitor, WAL) and around Handler().
var perLayer = []metricDef{
	{name: "service.explain_hit_us.p50", unit: "us", better: "lower", moves: "explain_cpu_rel, explain_rps, explain_p50_ms", on: "hot_read"},
	{name: "service.explain_hit_us.p99", unit: "us", better: "lower", moves: "explain_cpu_rel, explain_rps, explain_p50_ms", on: "hot_read"},
	{name: "service.explain_miss_us.p50", unit: "us", better: "lower", moves: "explain_p50_ms", on: "cold_read"},
	{name: "service.explain_miss_us.p99", unit: "us", better: "lower", moves: "explain_p50_ms", on: "cold_read"},
	{name: "service.explain_pre_solve_us.p50", unit: "us", better: "lower", moves: "explain_p99_ms, explain_slo_ok", on: "mixed_write"},
	{name: "service.explain_pre_solve_us.p99", unit: "us", better: "lower", moves: "explain_p99_ms, explain_slo_ok", on: "mixed_write"},
	{name: "service.explain_post_solve_us.p50", unit: "us", better: "lower", moves: "explain_cpu_rel, explain_rps", on: "cold_read"},
	{name: "service.cache_hit_ratio", unit: "share", better: "higher", moves: "explain_rps", on: "hot_read, mixed_write"},
	{name: "service.coalesced_ratio", unit: "share", better: "higher", moves: "explain_rps", on: "hot_read, mixed_write"},
	{name: "service.observe_us.p50", unit: "us", better: "lower", moves: "observe_p99_ms", on: "mixed_write"},
	{name: "service.observe_us.p99", unit: "us", better: "lower", moves: "observe_p99_ms", on: "mixed_write"},
	{name: "service.observe_pre_monitor_us.p99", unit: "us", better: "lower", moves: "observe_p99_ms", on: "mixed_write"},
	{name: "service.recover_s", unit: "s", better: "lower", moves: "setup_s", on: "all"},
	{name: "core.solve_us.p50", unit: "us", better: "lower", moves: "explain_cpu_rel, explain_rps, explain_p50_ms", on: "cold_read"},
	{name: "core.solve_us.p99", unit: "us", better: "lower", moves: "explain_cpu_rel, explain_rps, explain_p50_ms", on: "cold_read"},
	{name: "core.solve_busy_share", unit: "share", better: "lower", moves: "explain_cpu_rel, explain_rps, explain_p50_ms", on: "cold_read"},
	{name: "core.solves_per_explain", unit: "count", better: "lower", moves: "explain_rps, key_size_mean", on: "hot_read, mixed_write"},
	{name: "core.no_key_ratio", unit: "share", better: "lower", moves: "explain_rps, key_size_mean", on: "hot_read, mixed_write"},
	{name: "core.degraded_ratio", unit: "share", better: "lower", moves: "explain_rps, key_size_mean", on: "hot_read, mixed_write"},
	{name: "cce.monitor_observe_us.p50", unit: "us", better: "lower", moves: "observe_p50_ms", on: "mixed_write"},
	{name: "cce.monitor_observe_us.p99", unit: "us", better: "lower", moves: "observe_p50_ms", on: "mixed_write"},
	{name: "persist.wal_write_us.p50", unit: "us", better: "lower", moves: "observe_p50_ms, explain_p99_ms", on: "mixed_write"},
	{name: "persist.wal_fsync_us.p50", unit: "us", better: "lower", moves: "observe_p50_ms, explain_p99_ms", on: "mixed_write"},
	{name: "persist.wal_fsync_us.p99", unit: "us", better: "lower", moves: "observe_p50_ms, explain_p99_ms", on: "mixed_write"},
	{name: "persist.fsyncs_per_observe", unit: "count", better: "lower", moves: "observe_p50_ms, explain_p99_ms", on: "mixed_write"},
	{name: "persist.wal_bytes_per_observe", unit: "bytes", better: "lower", moves: "observe_p50_ms, explain_p99_ms", on: "mixed_write"},
	{name: "persist.snapshot_ms", unit: "ms", better: "lower", moves: "explain_p99_ms", on: "mixed_write"},
	{name: "persist.snapshot_count", unit: "count", better: "lower", moves: "explain_p99_ms", on: "mixed_write"},
	{name: "loadgen.late_p99_ms", unit: "ms", better: "lower", moves: "validity of every number above", on: "all"},
	{name: "loadgen.repeat_share", unit: "share", better: "higher", moves: "validity of every number above", on: "all"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "higher", moves: "-", on: "all"},
}
