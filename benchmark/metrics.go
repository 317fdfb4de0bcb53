package main

import "repro/internal/latency"

// metricDef names one metric: the table BENCHMARK.json repeats and the
// names test holds it to.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists what a user of the runtime sees, each with the share of
// the parent's median by which it may worsen. Every metric is reported on
// every workload and is never zero. A bound is one number for all six
// workloads, so the least steady workload sets it: results/spread_10seeds.txt
// holds the measured run-to-run spreads the bounds are three times of.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"msg_per_s", "1/s", higher, 0.25},
	{"iter_p50_us", "us", lower, 0.25},
	{"allocs_per_msg", "1", lower, 0.25},
}

// perLayer lists the single-layer metrics of the traced run, in the order
// they are printed. Names are layer.metric; layers are this repo's packages.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		// wire: internal/transport codec (ladder).
		{Name: "wire.encode_mux_0B_ns", Unit: "ns", Better: lower},
		{Name: "wire.decode_mux_0B_ns", Unit: "ns", Better: lower},
		{Name: "wire.encode_mux_64K_ns", Unit: "ns", Better: lower},
		{Name: "wire.decode_mux_64K_ns", Unit: "ns", Better: lower},
		{Name: "wire.decode_allocs_per_op", Unit: "1", Better: lower},
		// ringbuf (ladder).
		{Name: "ringbuf.mpsc_push_pop_ns", Unit: "ns", Better: lower},
		{Name: "ringbuf.mpsc_popbatch_ns_per_elem", Unit: "ns", Better: lower},
		// match (ladder + counters).
		{Name: "match.list_posted_hit_ns", Unit: "ns", Better: lower},
		{Name: "match.list_unexpected_hit_ns", Unit: "ns", Better: lower},
		{Name: "match.list_walk_ns_per_elem", Unit: "ns", Better: lower},
		{Name: "match.sharded_posted_hit_ns", Unit: "ns", Better: lower},
		{Name: "match.sharded_unexpected_hit_ns", Unit: "ns", Better: lower},
		{Name: "match.allocs_per_msg", Unit: "1", Better: lower},
		{Name: "match.walk_elems_per_msg", Unit: "1", Better: lower},
		{Name: "match.unexpected_share", Unit: "1", Better: lower},
		{Name: "match.oos_share", Unit: "1", Better: lower},
		// cri (ladder + counters).
		{Name: "cri.acquire_rr_ns", Unit: "ns", Better: lower},
		{Name: "cri.acquire_dedicated_ns", Unit: "ns", Better: lower},
		{Name: "cri.acquire_freelist_ns", Unit: "ns", Better: lower},
		{Name: "cri.send_lock_waits_per_kmsg", Unit: "1", Better: lower},
		{Name: "cri.freelist_empty_share", Unit: "1", Better: lower},
		// progress (ladder + counters).
		{Name: "progress.idle_pass_serial_ns", Unit: "ns", Better: lower},
		{Name: "progress.idle_pass_concurrent4_ns", Unit: "ns", Better: lower},
		{Name: "progress.calls_per_msg", Unit: "1", Better: lower},
		{Name: "progress.trylock_fail_share", Unit: "1", Better: lower},
		{Name: "progress.steal_losses", Unit: "count", Better: lower},
		// fabric and tcpnet through the transport interface (ladder + counters).
		{Name: "fabric.send_ns_per_msg", Unit: "ns", Better: lower},
		{Name: "fabric.poll_ns_per_msg", Unit: "ns", Better: lower},
		{Name: "fabric.send_poll_ns_per_msg", Unit: "ns", Better: lower},
		{Name: "tcpnet.send_poll_ns_per_msg", Unit: "ns", Better: lower},
		{Name: "tcpnet.connect_ms", Unit: "ms", Better: lower},
		{Name: "tcpnet.read_syscalls_per_msg", Unit: "1", Better: lower},
		{Name: "tcpnet.write_syscalls_per_msg", Unit: "1", Better: lower},
		{Name: "tcpnet.wire_bytes_per_msg", Unit: "B", Better: lower},
		{Name: "tcpnet.conns_opened", Unit: "count", Better: lower},
		{Name: "tcpnet.reconnects", Unit: "count", Better: lower},
		{Name: "tcpnet.short_writes", Unit: "count", Better: lower},
		// core: what the application thread sees (spans).
		{Name: "core.post_send_ns_per_msg", Unit: "ns", Better: lower},
		{Name: "core.wait_send_ns_per_msg", Unit: "ns", Better: lower},
		{Name: "core.post_recv_ns_per_msg", Unit: "ns", Better: lower},
		{Name: "core.wait_recv_ns_per_msg", Unit: "ns", Better: lower},
		// rma (spans + counters).
		{Name: "rma.put_ns_per_op", Unit: "ns", Better: lower},
		{Name: "rma.flush_ns_per_call", Unit: "ns", Better: lower},
		{Name: "rma.flush_calls", Unit: "count", Better: lower},
	}
	// latency: the runtime's own stage histograms (Options.Latency).
	for s := latency.Stage(0); s < latency.NumStages; s++ {
		defs = append(defs,
			metricDef{Name: "latency." + s.String() + "_p50_ns", Unit: "ns", Better: lower},
			metricDef{Name: "latency." + s.String() + "_p99_ns", Unit: "ns", Better: lower})
	}
	return append(defs,
		metricDef{Name: "latency.e2e_p50_ns", Unit: "ns", Better: lower},
		metricDef{Name: "latency.e2e_p99_ns", Unit: "ns", Better: lower},
		metricDef{Name: "latency.residual_pct", Unit: "%", Better: lower},
		// obs: enabled cost of each observer on inproc_stream_0B.
		metricDef{Name: "obs.telemetry_overhead_pct", Unit: "%", Better: lower},
		metricDef{Name: "obs.tracewire_overhead_pct", Unit: "%", Better: lower},
		metricDef{Name: "obs.latency_overhead_pct", Unit: "%", Better: lower},
		metricDef{Name: "obs.flight_overhead_pct", Unit: "%", Better: lower},
		metricDef{Name: "obs.profile_overhead_pct", Unit: "%", Better: lower},
		// runtime: the Go runtime under the message path (counters).
		metricDef{Name: "runtime.alloc_bytes_per_msg", Unit: "B", Better: lower},
		metricDef{Name: "runtime.gc_cycles", Unit: "count", Better: lower},
		metricDef{Name: "runtime.gc_pause_total_ms", Unit: "ms", Better: lower},
		metricDef{Name: "runtime.peak_rss_mb", Unit: "MB", Better: lower},
		metricDef{Name: "runtime.gomaxprocs", Unit: "count", Better: higher},
		// ladder and bench: how the rungs add up and what tracing costs.
		metricDef{Name: "ladder.send_side_ns", Unit: "ns", Better: lower},
		metricDef{Name: "ladder.recv_side_ns", Unit: "ns", Better: lower},
		metricDef{Name: "ladder.residual_pct", Unit: "%", Better: lower},
		metricDef{Name: "bench.trace_overhead_pct", Unit: "%", Better: lower},
		metricDef{Name: "bench.payload_MB_per_s", Unit: "MB/s", Better: higher},
		metricDef{Name: "bench.iter_tail_us", Unit: "us", Better: lower},
	)
}
