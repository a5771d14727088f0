// Benchmark harness: one benchmark per table/figure in the paper's
// evaluation, plus ablation benches for the design choices DESIGN.md calls
// out. Each figure bench builds its figure from a shared full-campaign
// trace (seed 1) and prints the regenerated rows once, so
//
//	go test -bench=. -benchmem
//
// emits the complete evaluation alongside the timings.
package realtracer

import (
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"realtracer/internal/campaign"
	"realtracer/internal/core"
	"realtracer/internal/figures"
	"realtracer/internal/netsim"
	"realtracer/internal/player"
	"realtracer/internal/stats"
	"realtracer/internal/study"
	"realtracer/internal/trace"
	"realtracer/internal/transport"
)

var (
	studyOnce sync.Once
	studyRecs []*trace.Record
	studyErr  error
)

// sharedTrace runs (once) the full 63-user study whose trace all figure
// benches share.
func sharedTrace(b *testing.B) []*trace.Record {
	b.Helper()
	studyOnce.Do(func() {
		res, err := study.Run(study.Options{Seed: 1})
		if err != nil {
			studyErr = err
			return
		}
		studyRecs = res.Records
	})
	if studyErr != nil {
		b.Fatalf("study: %v", studyErr)
	}
	return studyRecs
}

var renderOnce sync.Map

func renderFigure(id string, fig figures.Figure) {
	if _, loaded := renderOnce.LoadOrStore(id, true); !loaded {
		fig.Render(os.Stdout)
	}
}

func benchFigure(b *testing.B, id string) {
	recs := sharedTrace(b)
	g, ok := figures.ByID(id)
	if !ok {
		b.Fatalf("unknown figure %s", id)
	}
	var fig figures.Figure
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig = g.Agg(figures.Aggregate(recs))
	}
	b.StopTimer()
	renderFigure(id, fig)
}

// BenchmarkFig01Timeline regenerates Figure 1 (buffering and playout of one
// clip): each iteration runs a complete simulated 70-second session.
func BenchmarkFig01Timeline(b *testing.B) {
	var fig figures.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, _, err = core.Fig01Timeline(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	renderFigure("fig01", fig)
}

func BenchmarkFig05ClipsPerUser(b *testing.B)            { benchFigure(b, "fig05") }
func BenchmarkFig06RatedPerUser(b *testing.B)            { benchFigure(b, "fig06") }
func BenchmarkFig07ByUserCountry(b *testing.B)           { benchFigure(b, "fig07") }
func BenchmarkFig08ByServerCountry(b *testing.B)         { benchFigure(b, "fig08") }
func BenchmarkFig09ByUSState(b *testing.B)               { benchFigure(b, "fig09") }
func BenchmarkFig10Unavailable(b *testing.B)             { benchFigure(b, "fig10") }
func BenchmarkFig11FrameRateAll(b *testing.B)            { benchFigure(b, "fig11") }
func BenchmarkFig12FrameRateByAccess(b *testing.B)       { benchFigure(b, "fig12") }
func BenchmarkFig13BandwidthByAccess(b *testing.B)       { benchFigure(b, "fig13") }
func BenchmarkFig14FrameRateByServerRegion(b *testing.B) { benchFigure(b, "fig14") }
func BenchmarkFig15FrameRateByUserRegion(b *testing.B)   { benchFigure(b, "fig15") }
func BenchmarkFig16ProtocolMix(b *testing.B)             { benchFigure(b, "fig16") }
func BenchmarkFig17FrameRateByProtocol(b *testing.B)     { benchFigure(b, "fig17") }
func BenchmarkFig18BandwidthByProtocol(b *testing.B)     { benchFigure(b, "fig18") }
func BenchmarkFig19FrameRateByPC(b *testing.B)           { benchFigure(b, "fig19") }
func BenchmarkFig20JitterAll(b *testing.B)               { benchFigure(b, "fig20") }
func BenchmarkFig21JitterByAccess(b *testing.B)          { benchFigure(b, "fig21") }
func BenchmarkFig22JitterByServerRegion(b *testing.B)    { benchFigure(b, "fig22") }
func BenchmarkFig23JitterByUserRegion(b *testing.B)      { benchFigure(b, "fig23") }
func BenchmarkFig24JitterByProtocol(b *testing.B)        { benchFigure(b, "fig24") }
func BenchmarkFig25JitterByBandwidth(b *testing.B)       { benchFigure(b, "fig25") }
func BenchmarkFig26QualityAll(b *testing.B)              { benchFigure(b, "fig26") }
func BenchmarkFig27QualityByAccess(b *testing.B)         { benchFigure(b, "fig27") }
func BenchmarkFig28QualityVsBandwidth(b *testing.B)      { benchFigure(b, "fig28") }

// BenchmarkStudyEndToEnd times one complete reduced campaign (12 users, 10
// clips each) — the macro cost of the whole apparatus.
func BenchmarkStudyEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := study.Run(study.Options{Seed: int64(i + 2), MaxUsers: 12, ClipCap: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllFiguresShared builds every figure off one shared aggregate
// pass — the single-sweep path that replaced 24 per-figure sweeps.
func BenchmarkAllFiguresShared(b *testing.B) {
	recs := sharedTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if figs := core.AllFigures(recs); len(figs) != 24 {
			b.Fatalf("figures=%d", len(figs))
		}
	}
}

// --- Streaming pipeline (population scale) ---

// streamStudy runs one study with a fresh figures.Aggregates as its world's
// sink, so no record outlives its clip.
func streamStudy(b *testing.B, opt study.Options) (*figures.Aggregates, *study.Result) {
	w, err := study.NewWorld(opt)
	if err != nil {
		b.Fatal(err)
	}
	agg := figures.NewAggregates()
	w.SetSink(agg)
	res, err := w.Run()
	if err != nil {
		b.Fatal(err)
	}
	return agg, res
}

// udpPlayed returns the records of clips that streamed data over UDP.
func udpPlayed(recs []*trace.Record) []*trace.Record {
	var out []*trace.Record
	for _, r := range recs {
		if r.Protocol == "UDP" && !r.Unavailable && !r.Failed {
			out = append(out, r)
		}
	}
	return out
}

// benchPopulationStream streams a population-scale study through the
// aggregate pipeline, reporting record throughput alongside the allocation
// counters — the ceiling this PR removes is records retained per run.
func benchPopulationStream(b *testing.B, users, clips int) {
	b.ReportAllocs()
	var records int
	for i := 0; i < b.N; i++ {
		agg, _ := streamStudy(b, study.Options{Seed: 1, MaxUsers: users, ClipCap: clips})
		if agg.Total() == 0 {
			b.Fatal("no records streamed")
		}
		records += agg.Total()
	}
	b.ReportMetric(float64(records)/b.Elapsed().Seconds(), "records/sec")
}

// BenchmarkPopulationStream1k is the population-scale benchmark: a
// 1,000-user study (proportionally scaled population, 2 clips per user)
// streamed into mergeable aggregates. Memory stays bounded by aggregate
// size — the sketches fold past their exact caps — no matter how many
// records flow through.
func BenchmarkPopulationStream1k(b *testing.B) { benchPopulationStream(b, 1000, 2) }

// BenchmarkPopulationStream250 / BenchmarkPopulationRetain250 contrast the
// streaming and retain-everything paths at the same moderate scale: same
// simulation work, different record lifetimes.
func BenchmarkPopulationStream250(b *testing.B) { benchPopulationStream(b, 250, 2) }

func BenchmarkPopulationRetain250(b *testing.B) {
	b.ReportAllocs()
	var records int
	for i := 0; i < b.N; i++ {
		res, err := study.Run(study.Options{Seed: 1, MaxUsers: 250, ClipCap: 2})
		if err != nil {
			b.Fatal(err)
		}
		records += len(res.Records)
	}
	b.ReportMetric(float64(records)/b.Elapsed().Seconds(), "records/sec")
}

// BenchmarkWorkloadPoisson1k is the open-loop scale benchmark: 1,000
// Poisson arrivals over a 200-template pool, each session drawing Zipf
// clips and churning its host on and off the network, streamed into
// mergeable aggregates. It demonstrates the workload engine riding the
// zero-allocation discrete-event core — memory stays bounded by aggregate
// size, and template hosts are recycled through RemoveHost/AddHost all
// run long.
func BenchmarkWorkloadPoisson1k(b *testing.B) {
	b.ReportAllocs()
	var records, sessions int
	for i := 0; i < b.N; i++ {
		agg, res := streamStudy(b, study.Options{
			Seed: 1, MaxUsers: 200, ClipCap: 2,
			Workload: "poisson", Arrivals: 1000,
		})
		if agg.Total() == 0 || res.Sessions == 0 {
			b.Fatal("no open-loop records streamed")
		}
		records += agg.Total()
		sessions += res.Sessions
	}
	b.ReportMetric(float64(records)/b.Elapsed().Seconds(), "records/sec")
	b.ReportMetric(float64(sessions)/float64(b.N), "sessions/op")
}

// BenchmarkWorkloadChurn2x doubles the arrival intensity over the same
// 200-template pool: templates balk, sessions abandon mid-stream, and the
// pooled bundle graph is leased and recycled at twice the Poisson1k rate —
// the stress case for the session free-list. departures/op tracks how much
// of the churn exercised the mid-stream teardown path.
func BenchmarkWorkloadChurn2x(b *testing.B) {
	b.ReportAllocs()
	var records, sessions, departed int
	for i := 0; i < b.N; i++ {
		agg, res := streamStudy(b, study.Options{
			Seed: 1, MaxUsers: 200, ClipCap: 2,
			Workload: "poisson", Arrivals: 1000, WorkloadIntensity: 2,
		})
		if agg.Total() == 0 || res.Sessions == 0 {
			b.Fatal("no open-loop records streamed")
		}
		records += agg.Total()
		sessions += res.Sessions
		departed += res.Departed
	}
	b.ReportMetric(float64(records)/b.Elapsed().Seconds(), "records/sec")
	b.ReportMetric(float64(sessions)/float64(b.N), "sessions/op")
	b.ReportMetric(float64(departed)/float64(b.N), "departures/op")
}

// --- Campaign engine (internal/campaign) ---

// stabilityScenarios is the 20-replica multi-seed stability campaign: the
// reduced study at 20 consecutive seeds.
func stabilityScenarios(n int) []campaign.Scenario {
	return campaign.SeedReplicas(study.Options{MaxUsers: 12, ClipCap: 10}, 2, n)
}

// BenchmarkMultiSeedStability fans a 20-seed stability campaign out across
// every core and reports the cross-seed spread of the headline frame-rate
// number — the replication study that would otherwise cost 20 sequential
// study.Run calls.
func BenchmarkMultiSeedStability(b *testing.B) {
	scs := stabilityScenarios(20)
	var sum *campaign.Summary
	for i := 0; i < b.N; i++ {
		sum = campaign.Run(scs, campaign.Config{})
		if err := sum.Err(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var means []float64
	for _, r := range sum.Results {
		means = append(means, figures.Aggregate(r.Result.Records).FrameRate().Mean())
	}
	s, _ := stats.Summarize(means)
	ablationPrintf("stability",
		"stability %d seeds on %d workers: mean fps %.1f ± %.2f (min %.1f, max %.1f) in %v\n",
		len(scs), sum.Workers, s.Mean, s.StdDev, s.Min, s.Max, sum.Elapsed.Round(1e6))
}

// BenchmarkCampaignSerial / BenchmarkCampaignParallel time the same
// 8-scenario campaign on one worker vs the full pool — the engine's
// speedup baseline recorded in CHANGES.md.
func benchCampaignWorkers(b *testing.B, workers int) {
	scs := stabilityScenarios(8)
	for i := 0; i < b.N; i++ {
		sum := campaign.Run(scs, campaign.Config{Workers: workers})
		if err := sum.Err(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCampaignSerial(b *testing.B)   { benchCampaignWorkers(b, 1) }
func BenchmarkCampaignParallel(b *testing.B) { benchCampaignWorkers(b, 0) }

// benchCampaignDynamics runs one fault-injection sweep family through the
// streaming campaign engine, reporting record throughput and allocations —
// the cost of simulating weather on top of the static Internet.
func benchCampaignDynamics(b *testing.B, family string) {
	b.ReportAllocs()
	sw, ok := campaign.SweepByName(family)
	if !ok {
		b.Fatalf("unknown sweep %s", family)
	}
	scs := sw.Scenarios(campaign.ReducedBase(9))
	var records int
	for i := 0; i < b.N; i++ {
		merged, sum := core.RunCampaignAggregates(scs, campaign.Config{BaseSeed: 9})
		if err := sum.Err(); err != nil {
			b.Fatal(err)
		}
		if len(merged.Robustness()) < 2 {
			b.Fatal("robustness breakdown missing conditions")
		}
		records += merged.Total()
	}
	b.ReportMetric(float64(records)/b.Elapsed().Seconds(), "records/sec")
}

// BenchmarkCampaignDynamicsLossburst / ...Outage time the two heaviest
// dynamics families (per-packet Gilbert–Elliott chains; rolling outages
// with degradation shoulders) against BenchmarkCampaignSerial's static
// baseline.
func BenchmarkCampaignDynamicsLossburst(b *testing.B) { benchCampaignDynamics(b, "lossburst") }
func BenchmarkCampaignDynamicsOutage(b *testing.B)    { benchCampaignDynamics(b, "outage") }

// --- Warm-started campaigns (checkpoint/fork) ---

var (
	warmForkOnce    sync.Once
	warmForkHorizon time.Duration
	warmForkErr     error
)

// warmForkCalibrate measures (once) the virtual horizon of the warm-fork
// bench base, so the warm-up instant can sit at 60% of it.
func warmForkCalibrate(b *testing.B, base study.Options) time.Duration {
	b.Helper()
	warmForkOnce.Do(func() {
		res, err := study.Run(base)
		if err != nil {
			warmForkErr = err
			return
		}
		warmForkHorizon = res.SimDuration
	})
	if warmForkErr != nil {
		b.Fatalf("warm-fork calibration: %v", warmForkErr)
	}
	return warmForkHorizon
}

// BenchmarkCampaignWarmFork is the checkpoint/fork amortization pair
// (README benchmark history, PR 10): an 8-scenario sweep of the reduced
// study, cold (every scenario pays the full horizon) vs warm-started (one shared
// prefix to 60% of the horizon, checkpointed once, 8 named forks resumed
// from the snapshot). Workers is pinned to 1 on both arms so the ratio
// measures prefix amortization, not parallelism; the theoretical ceiling
// at these parameters is 8/(0.6+8×0.4) ≈ 2.1x.
func BenchmarkCampaignWarmFork(b *testing.B) {
	base := campaign.ReducedBase(9)
	horizon := warmForkCalibrate(b, base)
	warmup := horizon * 6 / 10

	b.Run("cold", func(b *testing.B) {
		scs := campaign.SeedReplicas(base, 10, 8)
		for i := 0; i < b.N; i++ {
			sum := campaign.Run(scs, campaign.Config{Workers: 1})
			if err := sum.Err(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		forks := make([]study.Fork, 8)
		for i := range forks {
			forks[i] = study.Fork{Name: fmt.Sprintf("fork-%02d", i)}
		}
		var sum *campaign.WarmForkResult
		for i := 0; i < b.N; i++ {
			var err error
			sum, err = campaign.RunWarmForks(base, warmup, forks, campaign.Config{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			if err := sum.Err(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		ablationPrintf("warmfork",
			"warm fork: %d forks from one %v prefix (%d-byte snapshot, prefix cost %v of %v total)\n",
			len(sum.Results), sum.Warmup.Round(time.Second), sum.SnapshotBytes,
			sum.WarmupElapsed.Round(time.Millisecond), sum.Elapsed.Round(time.Millisecond))
	})
}

// --- Ablations (DESIGN.md section 4) ---

var ablationOnce sync.Map

func ablationPrintf(key, format string, args ...any) {
	if _, loaded := ablationOnce.LoadOrStore(key, true); !loaded {
		fmt.Printf(format, args...)
	}
}

// runAblation executes one registered sweep through the campaign engine
// (all cores) and hands each scenario's result to report.
func runAblation(b *testing.B, sweepName string, report func(r campaign.ScenarioResult)) {
	b.Helper()
	sw, ok := campaign.SweepByName(sweepName)
	if !ok {
		b.Fatalf("unknown sweep %s", sweepName)
	}
	scs := sw.Scenarios(campaign.ReducedBase(9))
	var sum *campaign.Summary
	for i := 0; i < b.N; i++ {
		sum = campaign.Run(scs, campaign.Config{})
		if err := sum.Err(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, r := range sum.Results {
		report(r)
	}
}

// BenchmarkAblationBuffer sweeps the player's initial buffer depth and
// reports the jitter CDF shift: the paper credits the "large initial delay
// buffer" for the smooth playouts of Figure 20.
func BenchmarkAblationBuffer(b *testing.B) {
	runAblation(b, "preroll", func(r campaign.ScenarioResult) {
		preroll := r.Scenario.Options.Preroll
		c, _ := figures.Aggregate(r.Result.Records).Jitter().CDF()
		ablationPrintf(fmt.Sprintf("buffer-%v", preroll),
			"ablation buffer preroll=%-4v jitter<=50ms %.0f%%  jitter>=300ms %.0f%%\n",
			preroll, 100*c.At(50), 100*c.FractionAtLeast(300))
	})
}

// BenchmarkAblationRateControl compares UDP rate controllers: TFRC vs AIMD
// vs unresponsive — Figure 18's "responsive but maybe not strictly
// TCP-friendly" observation, plus the [FF98] strawman.
func BenchmarkAblationRateControl(b *testing.B) {
	runAblation(b, "controller", func(r campaign.ScenarioResult) {
		ctrl := r.Scenario.Options.Controller
		udp := udpPlayed(r.Result.Records)
		var kbps []float64
		lost := 0
		for _, rec := range udp {
			kbps = append(kbps, rec.MeasuredKbps)
			lost += rec.FramesLost
		}
		ablationPrintf("rc-"+ctrl,
			"ablation ratecontrol %-13s udp sessions=%d mean %.0f Kbps, packets lost=%d\n",
			ctrl, len(udp), stats.Mean(kbps), lost)
	})
}

// BenchmarkAblationSureStream toggles mid-playout stream switching.
func BenchmarkAblationSureStream(b *testing.B) {
	runAblation(b, "surestream", func(r campaign.ScenarioResult) {
		fps := figures.Aggregate(r.Result.Records).FrameRate()
		c, _ := fps.CDF()
		label := "on"
		if r.Scenario.Options.DisableSureStream {
			label = "off"
		}
		ablationPrintf("ss-"+label,
			"ablation surestream=%-3s below 3 fps %.0f%%  mean %.1f fps\n",
			label, 100*c.FractionBelow(3), fps.Mean())
	})
}

// BenchmarkAblationFEC toggles repair packets under a lossy path.
func BenchmarkAblationFEC(b *testing.B) {
	runAblation(b, "fec", func(r campaign.ScenarioResult) {
		udp := udpPlayed(r.Result.Records)
		var corrupted, lost int
		for _, rec := range udp {
			corrupted += rec.FramesCorrupted
			lost += rec.FramesLost
		}
		label := "on"
		if r.Scenario.Options.DisableFEC {
			label = "off"
		}
		ablationPrintf("fec-"+label,
			"ablation fec=%-3s udp frames corrupted=%d, packets unrecovered=%d (n=%d sessions)\n",
			label, corrupted, lost, len(udp))
	})
}

// BenchmarkAblationLiveContent contrasts live and pre-recorded delivery of
// the same content on the same path — the paper's future-work experiment
// (Section VIII, citing [LH01]).
func BenchmarkAblationLiveContent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, live := range []bool{false, true} {
			var jitVals, bufVals []float64
			for seed := int64(0); seed < 6; seed++ {
				st, err := core.RunSession(core.SessionOptions{
					Protocol:     transport.UDP,
					ClientAccess: netsim.AccessDSLCable,
					ClipKbps:     225,
					Live:         live,
					Route: netsim.Route{
						OneWayDelay: 50 * time.Millisecond, Jitter: 15 * time.Millisecond,
						LossRate: 0.01, CapacityKbps: 600, CongestionMean: 0.3, CongestionVar: 0.15,
					},
					Seed: 200 + seed,
				})
				if err != nil {
					b.Fatal(err)
				}
				jitVals = append(jitVals, st.JitterMs)
				bufVals = append(bufVals, st.BufferingTime.Seconds())
			}
			label := "prerecorded"
			if live {
				label = "live"
			}
			ablationPrintf("live-"+label,
				"ablation content=%-11s jitter %.0f ms, initial buffering %.1f s\n",
				label, stats.Mean(jitVals), stats.Mean(bufVals))
		}
	}
}

// BenchmarkAblationScalableVideo compares controlled frame-rate reduction
// against erratic overload behaviour on the study's slowest PC class.
func BenchmarkAblationScalableVideo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, disable := range []bool{false, true} {
			var fpsVals, jitVals []float64
			for seed := int64(0); seed < 6; seed++ {
				st, err := core.RunSession(core.SessionOptions{
					Protocol:             transport.UDP,
					ClientAccess:         netsim.AccessDSLCable,
					ClipKbps:             350,
					CPU:                  player.PCPentiumMMX,
					DisableScalableVideo: disable,
					Seed:                 100 + seed,
				})
				if err != nil {
					b.Fatal(err)
				}
				fpsVals = append(fpsVals, st.MeasuredFPS)
				jitVals = append(jitVals, st.JitterMs)
			}
			label := "on"
			if disable {
				label = "off"
			}
			ablationPrintf("sv-"+label,
				"ablation scalablevideo=%-3s (Pentium MMX, 350Kbps clip): %.1f fps, jitter %.0f ms\n",
				label, stats.Mean(fpsVals), stats.Mean(jitVals))
		}
	}
}

// BenchmarkWorkloadSharded is the multi-core scaling benchmark: the
// Poisson1k workload over a 256-template pool, run through the sharded
// engine at 1, 2 and 4 shards. Run with -cpu 1,4 to see the scaling curve
// (shards=2 is the point a two-core runner can reach); the records are
// byte-identical across the sub-benchmarks (the sharding contract), so
// records/sec is the only number that should move.
func BenchmarkWorkloadSharded(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		shards := shards
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			var records int
			for i := 0; i < b.N; i++ {
				agg, res := streamStudy(b, study.Options{
					Seed: 1, MaxUsers: 256, ClipCap: 2,
					Workload: "poisson", Arrivals: 1000,
					Shards: shards,
				})
				if agg.Total() == 0 || res.Sessions == 0 {
					b.Fatal("no open-loop records streamed")
				}
				records += agg.Total()
			}
			b.ReportMetric(float64(records)/b.Elapsed().Seconds(), "records/sec")
		})
	}
}
