// Package realtracer reproduces "An Empirical Study of RealVideo
// Performance Across the Internet" (Wang, Claypool, Zuo — 2001) as a
// complete synthetic system: a RealServer-style streaming server, a
// RealPlayer/RealTracer-style instrumented client, the RTSP/RDT protocols
// between them, TCP/UDP transports over a deterministic discrete-event
// network simulator calibrated to the 2001 Internet, and the full
// 63-user/11-server measurement campaign whose trace regenerates every
// figure of the paper's evaluation.
//
// The network is not static: internal/netsim's dynamics layer scripts
// time-varying weather — link outages and degradation windows, bottleneck
// capacity ramps, diurnal and flash-crowd cross-traffic profiles,
// Gilbert–Elliott loss bursts, mid-session route-delay shifts — as a
// deterministic, seeded schedule over named paths and hosts. internal/study
// names intensity-scaled profiles (outage, flashcrowd, lossburst, diurnal,
// routeflap), the campaign registry turns them into fault-injection sweeps
// with dynamics-off control arms, and figures.Aggregates breaks robustness
// (rebuffers, stream switches, surviving frame rate) down per condition.
// With dynamics off, output is byte-identical to a build without the layer.
//
// The discrete-event core is zero-allocation in steady state: host names
// intern to dense IDs with path state in per-source rows indexed by the
// destination ID (O(servers x users) slots at any size, each row written only
// by its source's owner) and each host carrying a dense port table (no
// per-packet map lookups); a packet crosses three link stages written once
// each (uplink, wan, downlink) and leaves, when undeliverable, through one
// drop exit; link and bottleneck rates precompute to bits/sec at
// configuration time, and packets and clock events recycle through
// free-lists (delivery is
// scheduled as the Packet itself implementing simclock.EventHandler — no
// closures on the hot path). The scheduler is a hierarchical timing wheel
// (six levels of 64 slots at a ~131µs tick) with a small 4-ary near heap
// preserving exact (time, sequence) firing order, so arming is O(1) and a
// recurring timer re-armed from inside Fire reuses the just-fired event
// slot; a test-only reference scheduler is the differential oracle that CI
// replays random traces against under -race. The per-packet state keyed by
// a dense sequence number — TCP's send buffer (one window between the oldest
// unacknowledged segment and the next to assign, the flight being what lies
// below its cursor) and reorder buffer, the server's retransmit window, the
// player's FEC window and NACK ledger — lives in internal/seqwin's
// ring (an index and a compare per packet, span bounded whatever a peer or
// a snapshot claims) rather than in hash maps. One delivered UDP
// datagram costs ~45ns and zero allocations (BenchmarkPacketHopUDP,
// guarded by the alloc-budget test in internal/transport). The packet
// structs themselves — rdt's Data, Report, NACK and repair cells, transport's
// segments and ACKs — are leased, not carved: every Send ends in exactly one
// release of the payload it was handed, by whoever reads it last (the network
// at a drop or at a sharded world's WAN-edge copy, the receiving transport
// after its callback or when its conn closes — a closed conn holds nothing),
// and the release returns each cell to the free-list of
// the arena or stack it came from, so memory follows the sessions alive, not
// the packets ever sent (rdt.Arena, netsim/transit.go; audited per world by
// TestConservation's lease half). The control plane costs what it models:
// an RTSP message crosses the simulator as the *rtsp.Message and is charged
// its WireSize, which is arithmetic pinned equal to len(Marshal()) — the text
// is rendered only for real sockets; a server renders each immutable clip's
// DESCRIBE body once and every response shares it read-only; and a closed
// conn's two window rings go, cleared, to its stack's free-list
// for the host's next conn. Everything
// stays bit-for-bit deterministic — RNG draw order, FIFO tie-breaking and
// every floating-point expression on the packet path are part of the
// contract, pinned by the golden figures snapshot — so hot-path changes
// must keep output byte-identical, not merely statistically equivalent.
// Profile with `study -cpuprofile/-memprofile` (the latter records every
// allocation, so its object counts are exact); the perf trajectory is the
// history table in README's benchmark section and cmd/bench's record.
//
// The session lifecycle is pooled one level above the packet path: each
// open-loop user template owns a session bundle — tracer, player, packet
// arena, transport stack, plan/playlist scratch — built on
// the template's first arrival and leased on every arrival after it, with
// Reset methods walking the contract down the stack (tracer, player,
// media.FrameSource, the server's streamSession free-list, netsim's
// recycled host slots). Reset cancels timers (generation-checked handles
// make stale ones inert), clears storage in place, rebuilds the rest by
// struct literal, and reseeds RNGs — a reseeded rand.Rand reproduces a
// fresh one's draw stream, so pooling changes no record. The recycle
// invariant: a recycled session is indistinguishable from a fresh one and
// can never observe its predecessor's FEC window, retransmit ledger or
// decode state. Steady-state churn costs ~99 allocations per session
// (down from ~10,000 before the free-lists and ~308 before the control plane
// stopped rendering text), pinned by TestSessionChurnAllocBudget alongside
// the transport alloc budget.
//
// The session engine is open-loop as well as closed: the paper's fixed
// 63-user panel is one workload ("panel", the default) in internal/workload's
// catalog. Open-loop workloads (poisson, diurnal, flashcrowd) admit sessions
// over virtual time via an arrival process — Lewis–Shedler thinning over a
// time-varying rate — with Zipf clip popularity, geometric session lengths,
// and mid-stream abandonment; each arrival attaches its host to the network
// and each departure removes it (netsim.RemoveHost), so the population
// churns like a production service's. Clips replicate across every server
// site in open-loop mode and a pluggable selection policy (pinned, rtt,
// roundrobin, leastloaded — the last probing live server load) re-homes each
// request; study.SessionFactory is the seam both modes share, driven once
// per user at build time by the panel and once per arrival on the simclock
// by the workload generator. The panel-mode byte-identical rule: the default
// workload must produce output byte-identical to a build without the
// workload layer (pinned by the golden figures snapshot), and open-loop
// campaign records must be byte-identical across worker counts (per-scenario
// workload seeds derive from scenario names).
//
// One world can also span cores: study.Options.Shards partitions an
// open-loop world across N shards under netsim.Fabric, a conservative
// (Chandy–Misra–Bryant-style) parallel discrete-event engine. Each shard
// owns a private clock, event heap, packet pool and RNG streams; the
// lookahead is the minimum inter-region one-way delay, so each round every
// shard runs events strictly below the global-minimum-plus-lookahead
// horizon in parallel, and cross-shard packets park on per-pair outboxes
// drained in fixed order between windows. Interning tables freeze at
// build, per-path RNG streams are seeded by frozen endpoint IDs, and
// wide-area payloads are snapshotted at the WAN edge, so for a fixed seed
// the record stream is byte-identical for every shard count N >= 1
// (TestShardEquivalence, run under -race in CI). Shards=0 remains the
// classic zero-copy single-threaded engine and the default; the sharded
// engine trades single-core overhead (copy-at-send, a second delivery
// event) for multi-core wall-clock scaling. The study layer builds and runs
// both the same way: study.NewWorld is one sequence (population, routes,
// the engine with one SessionFactory per shard, server plans, arrival cells,
// on a fabric intern and Freeze, dynamics, servers, load gossip, first
// arrivals or the panel's start timers) in which a classic world is the
// one-shard world without a fabric — one arrival cell over the whole pool on
// the workload seed itself — and World.Run is one loop (Fabric.Run's windows
// or Clock.Step until the work is finished), one stall check, the shard merge
// and one Result summed over the shards' clocks. The places the two engines
// still differ are tests of World.fab, listed on that field. The goroutine that
// calls Fabric.Run executes shard 0 itself and the other shards' workers wait for
// each window by polling an atomic before they park, because a window is
// tens of microseconds of work and a scheduler wake-up costs as much:
// measured on the 2-vCPU build box, cmd/bench's sharded2 world went from
// 2.01 s to 0.92 s of wall when the channel hand-off was replaced (two
// shards from 0.94-0.99x of one shard's speed to 1.49x, from 0.53-0.56x of
// the classic engine's to 1.07-1.10x). Fabric.WindowStats says what bounds
// it now: the busiest shard of each window executes 60.1% of that world's
// events, a ceiling of 1.66x for the partition (TestShardedWorkloadSpeedup,
// BenchmarkWorkloadSharded).
//
// A running world is also snapshottable: World.Checkpoint serializes the
// complete simulation state — simclock time and pending timers (through a
// typed-event registry; each registered event kind is re-armed by its one
// owner, and every event the engine schedules is one, so the snapshot is
// cut at exactly the instant asked for and Checkpoint does not advance the
// world), in-flight packets and per-path weather, TCP dials in flight and
// connections mid-transfer with
// segment-object sharing preserved for live senders, server sessions and
// free-lists, arrival-cell cursors, and every RNG stream's draw count —
// version-stamped with a hash of the world's Options so a mismatched
// resume fails loudly. Each checkpointed type describes its state once, as
// a Sync(*snap.Codec) walk that both writes and restores it: to add state
// to a checkpointed type, add one line to its Sync, and
// TestSyncCoversEveryField tells you if you forgot. A snapshot file is
// hostile input: study.Resume returns a world or an error, never a panic,
// a hang or a runaway allocation (FuzzResume in CI). The contract is
// byte-identity: study.Resume on a
// snapshot cut at any instant completes with records byte-identical to
// the straight-through run (TestCheckpointResumeByteIdentical, under
// -race in CI). A named study.Fork instead re-derives every RNG stream
// from the fork name and may override divergent-phase conditions
// (dynamics, controller, selection, intensities); campaign.RunWarmForks
// builds the shared warm prefix once and fans N forks across the worker
// pool from one read-only snapshot — an 8-fork sweep warm-started at 60%
// of the horizon runs >=2x faster than cold (BenchmarkCampaignWarmFork,
// fenced by TestWarmForkSpeedup).
//
// There is one way out for records: the world's sink (trace.Sink). A record
// handed to a sink is the sink's to keep; the default sink is a
// trace.Collector (the only one that fills Result.Records), World.SetSink
// installs any other — figures.Aggregates, the mergeable single-pass build
// every figure and summary is computed from, a trace.CSVSink, a MultiSink of
// several — and memory is bounded by what the sink keeps, so -users may run
// far past the paper's 63. The snapshot walks the sink too: a Collector
// world's checkpoint carries its records, an Aggregates world's carries the
// aggregates' own Sync walk, and Resume rebuilds whichever kind the section
// tag names (trace.RegisterSnapSink); a sink that cannot walk itself makes
// Checkpoint fail naming its type.
//
// Entry points: internal/study (Run for one study; NewWorld + SetSink + Run
// for any other sink), internal/campaign (the parallel campaign engine: Run
// fans named scenarios across a worker pool with deterministic per-scenario
// seeds, a sweep registry and per-scenario sinks), internal/core
// (RunCampaignAggregates, figure regeneration from aggregates, single-session
// experiments), cmd/study and cmd/realdata
// (collection and analysis tools — `study -sweep NAME -parallel N` runs a
// registered campaign sweep; `study -dynamics NAME` applies a weather
// profile; `study -users N` above 63 runs a population-scale study with
// memory bounded by aggregate size), cmd/realserver and cmd/realtracer (live
// operation over OS sockets). bench_test.go in this directory holds one
// benchmark per paper figure plus the design ablations, the
// population-scale streaming benchmarks, and the dynamics-campaign
// throughput benchmarks.
package realtracer
