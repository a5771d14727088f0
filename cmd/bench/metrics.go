package main

// The metric catalog. BENCHMARK.json at the repository root lists exactly
// these names, units and directions (TestCatalogMatchesBenchmarkJSON); the
// README's glossary says what each one means and which end-to-end metric
// it should move.

// metricDef names one reported number.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Exact marks a count that repeats bit-for-bit at a fixed seed. A change
	// meant only to speed the simulator up must leave every exact metric
	// (and records_digest) identical; -compare lists the ones that differ.
	Exact bool
	// Bound (end-to-end metrics only) is the share of the parent's median by
	// which the metric may get worse before a change counts as a regression.
	Bound float64
}

// endToEnd are the numbers a user of the simulator pays. Host time.
// failed_share from the issue is not a metric here: it is always 0 on a
// healthy run, which the driver's contract forbids for a bounded metric;
// the same information is the result line's failed/attempted pair.
//
// Each bound is about three times the widest quartile spread of ten runs at
// ten seeds measured when the harness was built (README "Recorded
// baseline"), capped at the contract's 0.25: the timings carry this shared
// box's interference.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "records_per_s", Unit: "records/s", Better: "higher", Bound: 0.25},
	{Name: "allocs_per_record", Unit: "allocs", Better: "lower", Bound: 0.12},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer is one traced run's ledger. Every traced run prints every name;
// a metric that does not apply to the workload (fabric.* off sharded2,
// snap.*/campaign.* off warmfork16, netsim counters and clock windows on
// engines that do not expose them) reads 0.
var perLayer = []metricDef{
	// study
	{Name: "study.newworld_ms", Unit: "ms", Better: "lower"},
	{Name: "study.sim_s", Unit: "s", Better: "lower", Exact: true},
	{Name: "study.sessions", Unit: "count", Better: "higher", Exact: true},
	{Name: "study.balked", Unit: "count", Better: "lower", Exact: true},
	{Name: "study.departed", Unit: "count", Better: "lower", Exact: true},
	{Name: "study.sim_x_realtime", Unit: "ratio", Better: "higher"},
	{Name: "study.cpu_share", Unit: "ratio", Better: "lower"},
	// simclock
	{Name: "simclock.events", Unit: "count", Better: "lower", Exact: true},
	{Name: "simclock.events_per_record", Unit: "count", Better: "lower", Exact: true},
	{Name: "simclock.pending_max", Unit: "count", Better: "lower", Exact: true},
	{Name: "simclock.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "simclock.window_ns_per_event_p50", Unit: "ns", Better: "lower"},
	{Name: "simclock.window_ns_per_event_p90", Unit: "ns", Better: "lower"},
	{Name: "simclock.ledger_rearm_ns_1k", Unit: "ns", Better: "lower"},
	{Name: "simclock.ledger_rearm_ns_10k", Unit: "ns", Better: "lower"},
	{Name: "simclock.ledger_cancel_ns_1k", Unit: "ns", Better: "lower"},
	{Name: "simclock.cpu_share", Unit: "ratio", Better: "lower"},
	// netsim
	{Name: "netsim.sent", Unit: "count", Better: "lower", Exact: true},
	{Name: "netsim.delivered", Unit: "count", Better: "higher", Exact: true},
	{Name: "netsim.dropped", Unit: "count", Better: "lower", Exact: true},
	{Name: "netsim.packets_per_record", Unit: "count", Better: "lower", Exact: true},
	{Name: "netsim.drop_share", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "netsim.events_per_packet", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "netsim.ledger_hop_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.ledger_hop_allocs", Unit: "count", Better: "lower"},
	{Name: "netsim.ledger_host_cycle_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.ledger_hop_weather_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.cpu_share", Unit: "ratio", Better: "lower"},
	// transport
	{Name: "transport.ledger_udp_msg_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.ledger_tcp_msg_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.ledger_tcp_lossy_msg_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.ledger_allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "transport.cpu_share", Unit: "ratio", Better: "lower"},
	// server / player / rdt+rtsp
	{Name: "core.session_udp_ms", Unit: "ms", Better: "lower"},
	{Name: "core.session_tcp_ms", Unit: "ms", Better: "lower"},
	{Name: "server.played", Unit: "count", Better: "higher", Exact: true},
	{Name: "server.torndown", Unit: "count", Better: "lower", Exact: true},
	{Name: "server.peak_sessions", Unit: "count", Better: "lower", Exact: true},
	{Name: "server.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "player.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "rdt_rtsp.cpu_share", Unit: "ratio", Better: "lower"},
	// figures / stats / trace
	{Name: "figures.observe_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "figures.build_all_ms", Unit: "ms", Better: "lower"},
	{Name: "figures.render_ms", Unit: "ms", Better: "lower"},
	{Name: "figures.paper_err", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "figures.ledger_observe_ns", Unit: "ns", Better: "lower"},
	{Name: "figures.ledger_merge_us", Unit: "us", Better: "lower"},
	{Name: "stats.ledger_sketch_add_ns", Unit: "ns", Better: "lower"},
	{Name: "stats.ledger_dist_add_ns", Unit: "ns", Better: "lower"},
	{Name: "figures_stats.cpu_share", Unit: "ratio", Better: "lower"},
	// netsim.Fabric (sharded2 only)
	{Name: "fabric.shards1_wall_s", Unit: "s", Better: "lower"},
	{Name: "fabric.classic_wall_s", Unit: "s", Better: "lower"},
	{Name: "fabric.scaling", Unit: "ratio", Better: "higher"},
	{Name: "fabric.vs_classic", Unit: "ratio", Better: "higher"},
	{Name: "fabric.cpu_over_wall", Unit: "ratio", Better: "higher"},
	{Name: "fabric.equiv_ok", Unit: "count", Better: "higher", Exact: true},
	// snap + checkpoint codecs (warmfork16 only)
	{Name: "snap.bytes", Unit: "count", Better: "lower", Exact: true},
	{Name: "snap.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "snap.checkpoint_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "snap.resume_ms", Unit: "ms", Better: "lower"},
	{Name: "snap.resume_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "snap.resume_equiv_ok", Unit: "count", Better: "higher", Exact: true},
	// campaign (warmfork16 only)
	{Name: "campaign.prefix_s", Unit: "s", Better: "lower"},
	{Name: "campaign.fork_s_p50", Unit: "s", Better: "lower"},
	{Name: "campaign.worker_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "campaign.amortization", Unit: "ratio", Better: "higher"},
	{Name: "campaign.cpu_over_wall", Unit: "ratio", Better: "higher"},
	// Go runtime
	{Name: "runtime.bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.heap_peak_mb", Unit: "MiB", Better: "lower"},
	{Name: "runtime_gc.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "other.cpu_share", Unit: "ratio", Better: "lower"},
	// harness
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "noise.calib_ms", Unit: "ms", Better: "lower"},
	{Name: "noise.reruns", Unit: "count", Better: "lower"},
}
