package main

// The metric lists. Names and units here must match BENCHMARK.json; run.py
// refuses a result line whose metrics differ from it.

// metricSpec is one end-to-end metric: what a user of the queue sees.
type metricSpec struct {
	name, unit string
}

// endToEnd is printed by every untraced run. Each metric has one meaning per
// kind of workload; README.md gives them in full.
var endToEnd = []metricSpec{
	// Closed loops: completed items per second, reference-corrected (median
	// over windows). serve-bursty: jobs served per second, which only falls
	// when the server saturates.
	{"throughput", "Mitems/s"},
	// Everything before the first timed window, reference-corrected, median
	// of several set-ups.
	{"setup_s", "s"},
	// Peak Go heap in use during the timed part.
	{"heap_mib", "MiB"},
	// Removal rank, 1 = the exact minimum: the paper's sequential process at
	// the workload's depth (pairs), a logged solve (sssp), or the live
	// waiting set at each dequeue (serve).
	{"rank_mean", "rank"},
	{"rank_p99", "rank"},
	// sssp: stale pops / processed pops. Elsewhere: the share of removals
	// that were not the exact minimum, the removals a label-correcting task
	// would have to re-check.
	{"stale_ratio", "ratio"},
	// serve: due instant -> completion. Closed loops: the reference-corrected
	// response time per item, p50 and p90 over windows.
	{"sojourn_p50_us", "us"},
	{"sojourn_p90_us", "us"},
	// serve: higher-priority jobs left waiting per served job. Elsewhere:
	// smaller keys left behind per removal (rank - 1).
	{"inv_wait_per_job", "jobs"},
}

// layerSpec is one per-layer metric with the end-to-end metric and workload
// it is predicted to move, written down before measuring.
type layerSpec struct {
	name, unit, moves string
}

// perLayer is printed by the traced run. Layers are the repository's
// modules; "host" and "trace" are the benchmark's own diagnostics.
var perLayer = []layerSpec{
	// core.BudgetProbes rows at n = 8 and the workload's prefill, ns per
	// Insert+DeleteMin pair (pairs workloads only).
	{"core.sample_ns", "ns", "throughput on pairs-shallow most, pairs-deep less"},
	{"xrand.draw_ns", "ns", "throughput on pairs-shallow most, pairs-deep less"},
	{"core.scan_ns", "ns", "throughput on pairs-shallow most, pairs-deep less"},
	{"core.lock_ns", "ns", "throughput on pairs-shallow most, pairs-deep less; sssp-batch8 pays it once per 8 items"},
	{"core.stats_ns", "ns", "throughput on pairs-shallow most, pairs-deep less"},
	{"core.residual_ns", "ns", "throughput on pairs-shallow most, pairs-deep less"},
	{"core.heap_ns", "ns", "throughput on pairs-deep; no change on serve-bursty"},
	// A bare pqueue.DAryHeap at the workload's per-queue depth.
	{"pqueue.push_ns", "ns", "throughput on pairs-deep; no change on serve-bursty"},
	{"pqueue.popmin_ns", "ns", "throughput on pairs-deep; no change on serve-bursty"},
	// Sampled timed calls: straight into core.Handle, and through the
	// pqadapt worker view (the gap is adapter dispatch).
	{"core.insert_ns", "ns", "throughput on pairs-*"},
	{"core.deletemin_ns", "ns", "throughput on pairs-*"},
	{"pqadapt.insert_ns", "ns", "throughput on pairs-*"},
	{"pqadapt.deletemin_ns", "ns", "throughput on pairs-*"},
	{"core.insertbatch_ns", "ns", "throughput on sssp-batch8"},
	{"core.deleteminbatch_ns", "ns", "throughput on sssp-batch8"},
	// core.HandleStats over the run's handles, per queue operation.
	{"core.empty_scans_per_op", "1/op", "sojourn_p50_us on serve-bursty; throughput on sssp-batch8 when the frontier is thin"},
	{"core.lock_fails_per_op", "1/op", "sojourn_p50_us on serve-bursty (near 0 on one P); throughput on sssp-batch8"},
	// The sched executor: worker time outside queue calls (task included),
	// failed and buffered pops, per popped item.
	{"sched.self_ns_per_item", "ns", "throughput on sssp-batch8, sojourn_p50_us on serve-bursty"},
	{"sched.empty_pops_per_item", "1/item", "throughput on sssp-batch8, sojourn_p50_us on serve-bursty"},
	{"sched.buffered_pops_per_item", "1/item", "throughput on sssp-batch8, sojourn_p50_us on serve-bursty"},
	// Open loop: injection - due, the pending-count samples, injection ->
	// dequeue, dequeue -> completion, achieved / offered rate.
	{"sched.lateness_p50_us", "us", "sojourn_p50_us on serve-bursty"},
	{"sched.lateness_p99_us", "us", "sojourn_p90_us on serve-bursty"},
	{"sched.qlen_mean", "jobs", "sojourn_* on serve-bursty"},
	{"jobs.wait_p50_us", "us", "sojourn_p50_us on serve-bursty"},
	{"jobs.wait_p99_us", "us", "sojourn_p90_us on serve-bursty"},
	{"jobs.service_us", "us", "sojourn_* on serve-bursty"},
	{"jobs.achieved_rate_ratio", "ratio", "throughput and sojourn_* on serve-bursty"},
	// The highest sojourn percentile with ten or more samples beyond it,
	// which percentile that is, and the sample count (no bound).
	{"jobs.sojourn_tail_us", "us", "none: the unbounded tail of serve-bursty's sojourn"},
	{"jobs.sojourn_tail_pct", "%", "none: which percentile jobs.sojourn_tail_us is"},
	{"jobs.sojourn_samples", "count", "none: the sample count behind serve-bursty's percentiles"},
	// Set-up layers and the sequential baseline.
	{"graph.build_s", "s", "setup_s on sssp-batch8"},
	{"graph.dijkstra_s", "s", "none: the single-thread baseline beside sssp-batch8's throughput"},
	{"workload.generate_s", "s", "setup_s on serve-bursty"},
	// The Go runtime during the timed part.
	{"runtime.gc_cycles", "count", "heap_mib everywhere"},
	{"runtime.gc_pause_ms", "ms", "heap_mib everywhere; throughput on pairs-*"},
	{"runtime.alloc_bytes_per_item", "B/item", "heap_mib everywhere; throughput on pairs-* (the hot path promises 0)"},
	// The benchmark's own diagnostics.
	{"host.ref_rate", "Mitems/s", "none: the reference kernel's median rate the correction divides by"},
	{"host.raw_throughput", "Mitems/s", "none: throughput before the correction"},
	{"host.spin_ns_per_unit", "ns", "none: the service spin's calibration"},
	{"host.view_ns_per_job", "ns", "none: what serve-bursty's timing view adds per job"},
	{"trace.overhead", "ratio", "none: traced cost / untraced cost - 1"},
}
