package main

// This file is the benchmark's vocabulary: workload names, end-to-end
// metric names with their regression bounds, and the per-layer ledger.
// BENCHMARK.json at the repo root lists exactly these names (a test holds
// the two in step); later issues refer to them verbatim.

type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median the metric may worsen by
}

type workloadSpec struct {
	Name string
	Why  string
}

// Frozen offered rates of the latency phases, tuples per second. They are
// constants of the benchmark, never derived from measured capacity.
// region-relay runs at 100k rather than the 40k first proposed: at 40k the
// slots' goroutines park between tuples and the median latency settles, per
// process, on one of three levels (72, 87 or 110 us) depending on how many
// of the four hops need a cross-thread wake-up; at 100k (a fifth of
// capacity) they stay warm and ten runs agree within a few percent.
const (
	relayRate  = 100000
	keyedRate  = 10000
	socketRate = 20000
)

var workloads = []workloadSpec{
	{"region-relay", "stateless 4-slot pipeline on 8 phones, scheme none, 100k t/s open loop: queueing, dispatch/emit, obs histograms and batching do the work; checkpointing and wire do none"},
	{"region-keyed-ckpt", "KeyBy + 4 keyed running sums over 100k Zipf keys, scheme ms, token checkpoints every 500 ms, 10k t/s open loop: checkpoint copy/diff/persist, broadcast and keyed routing; p99 sits in the pause"},
	{"socket-relay", "4-endpoint transport.Socket chain on loopback TCP, 16-tuple wire.Batch frames, 20k t/s open loop: wire decode/encode and socket send/recv do the work; the node runtime does none"},
	{"paper-bcp-fault", "the paper's BCP app on 16 phones, scheme ms, 3 Mbps 2% loss, speedup 200, two slot hosts fail per window: airtime- and protocol-bound, blobs are read back, guards the Reliable claim; simulated time"},
}

// The bounds are what this machine's run-to-run spread supports, not what
// one would wish: ten runs of unchanged code differ by up to 12% (quartile
// to quartile) in throughput and CPU per tuple, whatever the estimator.
// latency_p99_us is not here: see e2e.latency_p99_us below and README.md.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_tps", "1/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_tuple", "us", "lower", 0.25},
	{"allocs_per_tuple", "count", "lower", 0.10},
	{"net_bytes_per_tuple", "B", "lower", 0.20},
}

// perLayer is the ledger a --trace 1 run reports. A metric a workload does
// not exercise reads 0 there.
var perLayer = []metricSpec{
	// Tail latency, demoted from the end-to-end list: on the two relay
	// workloads 1-3% of tuples meet a scheduling hiccup, so p99 sits on the
	// knee between two regimes and ten unchanged runs spread by 50-120%.
	{Name: "e2e.latency_p99_us", Unit: "us", Better: "lower"},
	{Name: "e2e.latency_pooled_p99_us", Unit: "us", Better: "lower"},

	{Name: "wire.encode_stream_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_stream_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_stream_allocs", Unit: "count", Better: "lower"},
	{Name: "wire.encode_batch16_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_batch16_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_batch16_allocs_per_tuple", Unit: "count", Better: "lower"},
	{Name: "wire.batch16_bytes_per_tuple", Unit: "B", Better: "lower"},
	{Name: "wire.encode_blob_ns_per_kb", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_blob_ns_per_kb", Unit: "ns", Better: "lower"},

	{Name: "transport.socket_tell_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "transport.socket_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "transport.socket_frames", Unit: "count", Better: "lower"},
	{Name: "transport.socket_bytes", Unit: "B", Better: "lower"},
	{Name: "transport.socket_redials", Unit: "count", Better: "lower"},
	{Name: "transport.socket_dead_conns", Unit: "count", Better: "lower"},
	{Name: "transport.mem_tell_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "transport.sim_tell_ns_per_frame", Unit: "ns", Better: "lower"},

	{Name: "simnet.data_bytes", Unit: "B", Better: "lower"},
	{Name: "simnet.ckpt_bytes", Unit: "B", Better: "lower"},
	{Name: "simnet.ctrl_bytes", Unit: "B", Better: "lower"},
	{Name: "simnet.airtime_busy_share", Unit: "%", Better: "lower"},
	{Name: "simnet.inbox_drops", Unit: "count", Better: "lower"},
	{Name: "simnet.unicast_call_ns", Unit: "ns", Better: "lower"},

	{Name: "region.ingest_call_ns", Unit: "ns", Better: "lower"},
	{Name: "region.duplicate_outputs", Unit: "count", Better: "lower"},
	{Name: "region.efficiency_vs_inline", Unit: "%", Better: "higher"},

	{Name: "node.emit_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "node.emit_allocs_per_tuple", Unit: "count", Better: "lower"},
	{Name: "node.batch_mean_size", Unit: "count", Better: "higher"},
	{Name: "node.batch_flushes_per_ktuple", Unit: "count", Better: "lower"},
	{Name: "node.edge_wait_us_p50", Unit: "us", Better: "lower"},
	{Name: "node.edge_wait_us_p99", Unit: "us", Better: "lower"},
	{Name: "node.queue_depth_p99", Unit: "count", Better: "lower"},

	{Name: "operator.op_latency_us_p50", Unit: "us", Better: "lower"},
	{Name: "operator.op_latency_us_p99", Unit: "us", Better: "lower"},
	{Name: "operator.max_busy_share", Unit: "%", Better: "lower"},
	{Name: "operator.slowest_op_us_mean", Unit: "us", Better: "lower"},

	{Name: "keyed.owner_lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "keyed.instance_skew", Unit: "count", Better: "lower"},

	{Name: "obs.histogram_observe_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.emit_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "obs.tracer_drops", Unit: "count", Better: "lower"},

	{Name: "checkpoint.commits", Unit: "count", Better: "higher"},
	{Name: "checkpoint.pause_us_mean", Unit: "us", Better: "lower"},
	{Name: "checkpoint.pause_us_max", Unit: "us", Better: "lower"},
	{Name: "checkpoint.blob_bytes_per_commit", Unit: "B", Better: "lower"},
	{Name: "checkpoint.delta_ratio", Unit: "%", Better: "lower"},
	{Name: "checkpoint.build_blob_ns_per_kb", Unit: "ns", Better: "lower"},
	{Name: "checkpoint.build_delta_ns_per_kb", Unit: "ns", Better: "lower"},
	{Name: "checkpoint.materialize_ns_per_kb", Unit: "ns", Better: "lower"},
	{Name: "checkpoint.restore_ns_per_kb", Unit: "ns", Better: "lower"},

	{Name: "storage.put_blob_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.append_source_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.preserved_bytes_per_tuple", Unit: "B", Better: "lower"},
	{Name: "storage.retained_bytes_end", Unit: "B", Better: "lower"},

	{Name: "broadcast.datagrams_per_block", Unit: "count", Better: "lower"},
	{Name: "broadcast.retransmit_share", Unit: "%", Better: "lower"},
	{Name: "broadcast.disseminate_sim_ms_per_mb", Unit: "ms", Better: "lower"},

	{Name: "controller.recoveries", Unit: "count", Better: "lower"},
	{Name: "controller.detect_sim_s_p50", Unit: "s", Better: "lower"},
	{Name: "controller.recovery_sim_s_p50", Unit: "s", Better: "lower"},
	{Name: "controller.output_gap_sim_s_max", Unit: "s", Better: "lower"},

	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "proc.heap_inuse_mb_end", Unit: "MB", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.goroutines_end", Unit: "count", Better: "lower"},
	{Name: "gen.late_p99_us", Unit: "us", Better: "lower"},
	{Name: "gen.backlog_end", Unit: "count", Better: "lower"},
	{Name: "baseline.single_thread_tps", Unit: "1/s", Better: "higher"},

	{Name: "trace.queue_wait_us_p50", Unit: "us", Better: "lower"},
	{Name: "trace.op_us_p50", Unit: "us", Better: "lower"},
	{Name: "trace.batch_hold_us_p50", Unit: "us", Better: "lower"},
	{Name: "trace.net_us_p50", Unit: "us", Better: "lower"},
	{Name: "trace.closure_ratio", Unit: "count", Better: "higher"},
}
