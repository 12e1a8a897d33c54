package main

// metricDef declares one metric; BENCHMARK.json lists the same names,
// units and directions (the package test keeps the two in step). A
// per-layer metric reads 0 on a workload that never reaches its layer.
type metricDef struct{ name, unit, better string }

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"qps", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"slo_share", "share", "higher"},
	{"live_heap_mb", "MB", "lower"},
}

var perLayer = []metricDef{
	// root impir client
	{"client.keygen_us", "us", "lower"},
	{"client.reconstruct_us", "us", "lower"},
	{"client.self_us", "us", "lower"},
	{"client.open_ms", "ms", "lower"},
	{"client.subqueries_per_op", "count", "lower"},
	{"client.retries_per_op", "count", "lower"},
	{"client.hedges_per_op", "count", "lower"},
	{"client.p50_ms", "ms", "lower"},
	{"client.p90_ms", "ms", "lower"},
	{"client.p99_ms", "ms", "lower"},
	{"client.max_ms", "ms", "lower"},
	{"client.write_p50_ms", "ms", "lower"},
	// dpf
	{"dpf.gen_us", "us", "lower"},
	{"dpf.evalfull_ns_per_leaf", "ns", "lower"},
	{"dpf.key_wire_bytes", "bytes", "lower"},
	// xorop
	{"xorop.scan_gbps", "GB/s", "higher"},
	{"xorop.batch8_gbps", "GB/s", "higher"},
	{"xorop.bytes_per_op", "bytes", "lower"},
	// pirproto
	{"pirproto.frame_ns", "ns", "lower"},
	{"pirproto.key_codec_ns", "ns", "lower"},
	{"pirproto.batch_codec_ns", "ns", "lower"},
	{"pirproto.allocs_per_frame", "count", "lower"},
	// transport
	{"transport.dial_ms", "ms", "lower"},
	{"transport.query_us", "us", "lower"},
	{"transport.self_us", "us", "lower"},
	{"transport.bytes_up_per_op", "bytes", "lower"},
	{"transport.bytes_down_per_op", "bytes", "lower"},
	// scheduler
	{"scheduler.self_us", "us", "lower"},
	{"scheduler.queue_wait_us", "us", "lower"},
	{"scheduler.max_depth", "count", "lower"},
	{"scheduler.rejected", "count", "lower"},
	{"scheduler.pass_width_mean", "count", "higher"},
	{"scheduler.fused_share", "share", "higher"},
	{"scheduler.updates_per_put", "count", "lower"},
	// engines
	{"server.answer_us", "us", "lower"},
	{"server.kernel_share", "share", "higher"},
	{"cpupir.answer_us", "us", "lower"},
	{"cpupir.eval_us", "us", "lower"},
	{"cpupir.scan_us", "us", "lower"},
	{"impir.load_ms", "ms", "lower"},
	{"impir.answer_batch8_ms", "ms", "lower"},
	{"impir.modeled_batch8_ms", "ms", "lower"},
	{"impir.modeled_qps", "1/s", "higher"},
	{"gpupir.answer_us", "us", "lower"},
	{"gpupir.modeled_us", "us", "lower"},
	// batchcode
	{"batchcode.encode_s", "s", "lower"},
	{"batchcode.plan_us", "us", "lower"},
	{"batchcode.subqueries_per_batch", "count", "lower"},
	{"batchcode.fallback_share", "share", "lower"},
	{"batchcode.expansion", "ratio", "lower"},
	// keyword
	{"keyword.build_s", "s", "lower"},
	{"keyword.self_us", "us", "lower"},
	{"keyword.probes_per_key", "count", "lower"},
	{"keyword.hit_share", "share", "higher"},
	// cluster
	{"cluster.split_ms", "ms", "lower"},
	{"cluster.shard_rtt_ms", "ms", "lower"},
	// process
	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.alloc_bytes_per_op", "bytes", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"runtime.cpu_s_per_op", "s", "lower"},
	{"runtime.cpu_util", "share", "lower"},
	// load generator (open loop only)
	{"loadgen.max_late_ms", "ms", "lower"},
	{"loadgen.lost", "count", "lower"},
	{"loadgen.inflight_max", "count", "lower"},
	// the ladder itself
	{"trace.sampled_ops", "count", "higher"},
	{"trace.op_us", "us", "lower"},
	{"trace.overhead_share", "share", "lower"},
	{"trace.explained_share", "share", "higher"},
	{"trace.explained_sum_share", "share", "higher"},
	{"trace.kernel_share", "share", "higher"},
}
