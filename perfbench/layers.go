package main

// layerMetric names one per-layer metric and its unit.
type layerMetric struct{ name, unit string }

// perLayerMetrics is every metric a traced run prints, on every
// workload. A layer a workload does not exercise reports 0: the serve
// layer on the engine workloads, the engine tracer's phases and the
// simulated testbed on serve-mixed (the service runs its engines
// untraced).
var perLayerMetrics = []layerMetric{
	{"storage.read_mb_per_query", "MB"},
	{"storage.write_mb_per_query", "MB"},
	{"storage.busy_ms_per_query", "ms"},
	{"storage.opens_per_query", "count"},
	{"graph.decode_ns_per_edge", "ns/edge"},
	{"graph.stored_bytes_per_edge", "B/edge"},
	{"core.scatter_ms", "ms"},
	{"core.shuffle_ms", "ms"},
	{"core.gather_ms", "ms"},
	{"core.stay_write_ms", "ms"},
	{"core.load_ms", "ms"},
	{"core.iteration_self_ms", "ms"},
	{"core.run_self_ms", "ms"},
	{"core.unattributed_ms", "ms"},
	{"core.ms_per_level", "ms"},
	{"core.iterations", "count"},
	{"core.edges_streamed", "count"},
	{"core.stay_bytes", "B"},
	{"core.updates_useful_ratio", "ratio"},
	{"core.stay_adopted_ratio", "ratio"},
	{"core.skipped_partitions", "count"},
	{"xstream.inmem_load_ms", "ms"},
	{"xstream.inmem_traverse_ms", "ms"},
	{"bfs.csr_ms.p50", "ms"},
	{"bfs.floor_ratio", "ratio"},
	{"disksim.exec_s", "s"},
	{"disksim.read_mb", "MB"},
	{"disksim.written_mb", "MB"},
	{"disksim.iowait_ratio", "ratio"},
	{"runtime.gc_cycles_per_query", "count"},
	{"runtime.gc_pause_ms_per_query", "ms"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"serve.queue_wait_ms.p50", "ms"},
	{"serve.queue_wait_ms.p99", "ms"},
	{"serve.exec_ms.p50", "ms"},
	{"serve.batch_roots_mean", "count"},
	{"serve.batch_pass_ms.p50", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.rejected", "count"},
	{"serve.low_ms.p50", "ms"},
	{"serve.high_ms.p50", "ms"},
	{"serve.high_ms.p99", "ms"},
	{"algo.msbfs_ms.p50", "ms"},
	{"algo.sssp_ms.p50", "ms"},
	{"http.handler_overhead_ms.p50", "ms"},
	{"http.response_kb.p50", "kB"},
	{"loadgen.late_ms.p99", "ms"},
	{"loadgen.dropped", "count"},
	{"trace.overhead_ms", "ms"},
}

// endToEndMetrics is every metric an untraced run prints, on every
// workload.
var endToEndMetrics = []layerMetric{
	{"setup_s", "s"},
	{"query_ms.p50", "ms"},
	{"query_ms.p90", "ms"},
	{"alloc_mb_per_query", "MB"},
	{"max_rss_mb", "MB"},
	{"max_qps", "1/s"},
}

// fillLayers sets every per-layer metric the run did not measure to 0.
func fillLayers(m metricSet) {
	for _, l := range perLayerMetrics {
		if _, ok := m[l.name]; !ok {
			m.set(l.name, 0, l.unit)
		}
	}
}
