package main

// The metric tables. BENCHMARK.json lists the same names, units and
// directions (TestBenchmarkFileMatchesHarness holds the two in step);
// the harness renders from these, so it cannot emit a name the file
// does not declare.

// endToEndDefs are the metrics the driver bounds: `bound` is the share
// of the parent's median by which a later PR may worsen them. Neither
// can read 0. No timing is among them: see gateDefs.
var endToEndDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "decode_success_share", Unit: "share", Better: "higher", Bound: 0.002},
}

// gateDefs are the rest of ISSUE 11's end-to-end metrics. The driver's
// contract cannot hold them. It bounds only relatively and forbids a
// metric that can read 0, which five of these do on a healthy run. And
// it refuses a benchmark whose bounded metric spreads, over ten runs,
// by more than its bound of at most 25 %: on the shared reference host
// every timing here does in some hours (see "Measured spread" in
// README.md), so ISSUE 11's rule moves them out of the bounded list.
// The harness prints them with every run, lists them under per_layer so
// that the driver records them, fails the run on the ones that must be
// 0, and -compare holds them to ISSUE 11's own bounds (gateSlack).
var gateDefs = []metricDef{
	{Name: "throughput_syn_per_s", Unit: "syn/s", Better: "higher"},
	{Name: "sat_latency_p50_us", Unit: "us", Better: "lower"},
	{Name: "sat_latency_p99_us", Unit: "us", Better: "lower"},
	{Name: "paced_latency_p50_us", Unit: "us", Better: "lower"},
	{Name: "paced_latency_p99_us", Unit: "us", Better: "lower"},
	{Name: "paced_miss_share", Unit: "share", Better: "lower"},
	{Name: "cpu_us_per_syn", Unit: "us", Better: "lower"},
	{Name: "allocs_per_syn", Unit: "count", Better: "lower"},
	{Name: "logical_error_rate", Unit: "share", Better: "lower"},
	{Name: "unsatisfied_share", Unit: "share", Better: "lower"},
	{Name: "failed_share", Unit: "share", Better: "lower"},
}

// layerDefs are the single-layer metrics of the traced run. A layer the
// workload bypasses reads 0. Counts marked exact repeat for a seed.
var layerDefs = []metricDef{
	{Name: "gf2.mulvec_ns", Unit: "ns", Better: "lower"},
	{Name: "gf2.pack64_ns", Unit: "ns", Better: "lower"},

	{Name: "bp.scalar_us_mean", Unit: "us", Better: "lower"},
	{Name: "bp.scalar_us_p99", Unit: "us", Better: "lower"},
	{Name: "bp.batch64_us_per_syn", Unit: "us", Better: "lower"},
	{Name: "bp.batch_lane_gain", Unit: "ratio", Better: "higher"},
	{Name: "bp.iters_mean", Unit: "count", Better: "lower"},
	{Name: "bp.converged_share", Unit: "share", Better: "higher"},

	{Name: "hier.scalar_us_p50", Unit: "us", Better: "lower"},
	{Name: "hier.scalar_us_p99", Unit: "us", Better: "lower"},
	{Name: "hier.batch64_us_per_syn", Unit: "us", Better: "lower"},
	{Name: "hier.batch_lane_gain", Unit: "ratio", Better: "higher"},
	{Name: "hier.outer_iters_mean", Unit: "count", Better: "lower"},
	{Name: "hier.candidates_mean", Unit: "count", Better: "lower"},
	{Name: "hier.block_decodes_mean", Unit: "count", Better: "lower"},

	{Name: "decouple.decouple_s", Unit: "s", Better: "lower"},
	{Name: "decouple.blocks", Unit: "count", Better: "higher"},

	{Name: "osd.bposd_cs7_us_mean", Unit: "us", Better: "lower"},
	{Name: "osd.bposd_cs7_us_p99", Unit: "us", Better: "lower"},
	{Name: "osd.fallback_share", Unit: "share", Better: "lower"},
	{Name: "lsd.bplsd_us_mean", Unit: "us", Better: "lower"},
	{Name: "lsd.bplsd_us_p99", Unit: "us", Better: "lower"},

	{Name: "accel.vegapunk_fpga_ns_mean", Unit: "ns", Better: "lower"},
	{Name: "accel.vegapunk_fpga_ns_worst", Unit: "ns", Better: "lower"},

	{Name: "serve.queue_wait_us_mean", Unit: "us", Better: "lower"},
	{Name: "serve.queue_wait_us_p99", Unit: "us", Better: "lower"},
	{Name: "serve.batch_assemble_us_mean", Unit: "us", Better: "lower"},
	{Name: "serve.decode_us_mean", Unit: "us", Better: "lower"},
	{Name: "serve.copy_out_us_mean", Unit: "us", Better: "lower"},
	{Name: "serve.residual_us_mean", Unit: "us", Better: "lower"},
	{Name: "serve.batch_size_mean", Unit: "count", Better: "higher"},
	{Name: "serve.shed_total", Unit: "count", Better: "lower"},
	{Name: "serve.pool_miss_share", Unit: "share", Better: "lower"},
	{Name: "serve.degraded_share", Unit: "share", Better: "lower"},

	{Name: "wire.append_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.parse_result_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.ping_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "wire.net_us_mean", Unit: "us", Better: "lower"},

	{Name: "cluster.routed_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "cluster.direct_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "cluster.relay_overhead_us_p50", Unit: "us", Better: "lower"},
	{Name: "cluster.relay_overhead_share", Unit: "share", Better: "lower"},
	{Name: "cluster.retries_total", Unit: "count", Better: "lower"},
	{Name: "cluster.hedges_total", Unit: "count", Better: "lower"},
	{Name: "cluster.reconnects_total", Unit: "count", Better: "lower"},
	{Name: "cluster.admission_rejected_total", Unit: "count", Better: "lower"},

	{Name: "obs.serve_tracer_cost_share", Unit: "share", Better: "lower"},

	{Name: "harness.request_wall_us_mean", Unit: "us", Better: "lower"},
	{Name: "harness.tracing_overhead_share", Unit: "share", Better: "lower"},
	{Name: "harness.generator_late_us_p99", Unit: "us", Better: "lower"},
	{Name: "harness.verify_s", Unit: "s", Better: "lower"},
	{Name: "harness.round_spread_share", Unit: "share", Better: "lower"},
	{Name: "harness.calibration_ns", Unit: "ns", Better: "lower"},
}

// tracedDefs is what BENCHMARK.json lists under per_layer and a traced
// run prints as its last line: the gates, so that the driver records
// them, and the layers.
func tracedDefs() []metricDef {
	return append(append([]metricDef(nil), gateDefs...), layerDefs...)
}

// exactCounts are the per-layer values that repeat exactly for a seed:
// they count what the decoders did, not how long it took, so -compare
// demands equality and a difference means the algorithm changed.
var exactCounts = map[string]bool{
	"bp.iters_mean": true, "bp.converged_share": true,
	"hier.outer_iters_mean": true, "hier.candidates_mean": true, "hier.block_decodes_mean": true,
	"decouple.blocks": true, "osd.fallback_share": true,
	"accel.vegapunk_fpga_ns_mean": true, "accel.vegapunk_fpga_ns_worst": true,
}
