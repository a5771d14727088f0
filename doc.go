// Package realtracer is the root of a synthetic reproduction of "An
// Empirical Study of RealVideo Performance Across the Internet" (Wang,
// Claypool, Zuo — 2001). The packages under internal/ build the streaming
// server, the instrumented player, the protocols and transports between
// them, the discrete-event network they run on, and the measurement
// campaign whose records regenerate the paper's figures.
//
// The package itself holds only benchmarks (bench_test.go): one per paper
// figure, the design ablations, population-scale streaming, campaign and
// open-loop workload throughput, sharded and warm-fork campaigns.
//
// Entry points:
//
//   - study.Run runs one study; study.NewWorld builds a simulated world,
//     (*World).SetSink installs any trace.Sink and (*World).Run drives it.
//     study.Resume restores a World.Checkpoint snapshot, exactly or as a
//     named study.Fork, which runs the snapshot's own options and only
//     restarts its random streams from the name. study.NewStatic builds
//     the part of a world its options fix, once, for any number of worlds
//     (Static.NewWorld, Static.Resume) to share.
//   - campaign.Run fans named scenarios across a worker pool with
//     per-scenario seeds and sinks; campaign.RunWarmForks forks one warm
//     snapshot many times, every fork on the prefix's static world.
//   - figures.Aggregates is the mergeable build every figure and summary
//     is computed from (figures.Aggregate for records in memory), and
//     figures.All and figures.ByID the generators that draw from it;
//     core.RunCampaignAggregates merges one from a campaign.
//   - cmd/study is the campaign, figure and sweep CLI (go doc ./cmd/study);
//     cmd/realdata analyses a trace; cmd/realserver and cmd/realtracer run
//     the same server and player over OS sockets.
//
// README.md describes the design and where each invariant is fenced.
package realtracer
