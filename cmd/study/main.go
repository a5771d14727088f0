// Command study runs the full simulated RealTracer measurement campaign and
// regenerates the paper's figures from the resulting trace.
//
// Usage:
//
//	study [-seed N] [-users N] [-clips N] [-stream] [-out trace.csv]
//	      [-json trace.json] [-figure figNN | -figures] [-sites] [-timeline]
//	      [-sweep NAME|list] [-parallel N] [-dynamics NAME|list] [-intensity K]
//	      [-workload NAME|list] [-load K] [-arrivals N] [-selection NAME|list]
//	      [-shards N] [-checkpoint FILE -warmup DUR] [-resume FILE]
//	      [-cpuprofile FILE] [-memprofile FILE]
//
// With no figure flags it prints the campaign's headline numbers. -figure
// regenerates one figure; -figures all of them; -timeline runs the single-
// session Figure-1 experiment; -sites prints the server/user geography
// (the stand-in for the paper's map Figures 3 and 4). -sweep runs a named
// multi-scenario campaign (seed replicas or an ablation) through the
// parallel campaign engine; -parallel bounds its worker pool (0 = all
// cores). `-sweep list` enumerates the registered sweeps.
//
// -dynamics applies a named network-dynamics profile (time-varying weather:
// outages, flash crowds, loss bursts, diurnal cycles, route flaps) to the
// simulated Internet; -intensity scales it. `-dynamics list` enumerates the
// catalog. The fault-injection sweep families (outage, flashcrowd,
// lossburst, diurnal) run the same profiles across intensity levels against
// a dynamics-off control arm via -sweep.
//
// -workload switches the study from the paper's closed-loop panel (every
// user pre-scheduled, the default) to an open-loop session engine: sessions
// arrive under a named arrival process (poisson, diurnal, flashcrowd),
// draw clips by Zipf popularity, and leave — attaching and removing their
// hosts as they churn. -load scales the arrival rate, -arrivals bounds the
// session budget, and -selection picks the mirror-selection policy (pinned,
// rtt, roundrobin, leastloaded; clips are replicated across every server in
// open-loop mode). The selection and churn sweep families run these
// end-to-end via -sweep. -intensity requires -dynamics, and the open-loop
// knobs require -workload: a dependent flag without its governing flag is
// an error, never a silent no-op.
//
// -shards N runs the open-loop world across N cores: hosts are partitioned
// into per-shard event heaps synchronized with conservative lookahead, and
// the records are byte-identical to the -shards 1 run of the same seed —
// parallelism is an execution detail, never a result. Requires -workload;
// composes with every -dynamics profile and every -selection policy
// (leastloaded selections read lookahead-delayed load gossip).
//
// -checkpoint FILE -warmup DUR snapshots the full simulation state at
// exactly the warm-up instant (simulated time; taking the snapshot does not
// advance the world), then continues to completion — the run produces its
// normal output and leaves a reusable warm-start artifact.
// -resume FILE replays a snapshot to completion under the options it was
// written with; its records are byte-identical to the straight-through run.
// Snapshots are version-stamped with an options hash, so resuming under a
// mismatched build fails loudly, and world-shaping flags (-seed, -workload,
// ...) alongside -resume are hard errors: the snapshot's options win. A
// checkpoint needs the retained-records collector and a classic engine, so
// -stream and -shards refuse to combine with it. Divergent-scenario forks
// from one snapshot are the campaign API's job (campaign.RunWarmForks).
//
// -cpuprofile/-memprofile write pprof profiles of the run, so hot-path work
// (the zero-allocation discrete-event core) can keep attacking the profile:
//
//	study -stream -users 1000 -clips 3 -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof cpu.out
//
// -stream switches to the population-scale pipeline: records flow straight
// into mergeable figure aggregates (and, with -out, a streaming CSV writer)
// as clips complete, so memory is bounded by aggregate size instead of
// record count. -users may exceed the paper's 63 — the population is
// scaled proportionally — e.g.:
//
//	study -stream -users 1000 -clips 5 -figures
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"realtracer/internal/campaign"
	"realtracer/internal/core"
	"realtracer/internal/figures"
	"realtracer/internal/geo"
	"realtracer/internal/stats"
	"realtracer/internal/study"
	"realtracer/internal/trace"
	"realtracer/internal/workload"
)

func main() {
	seed := flag.Int64("seed", 1, "study random seed (one seed = one reproducible campaign)")
	users := flag.Int("users", 0, "number of users (0 = the paper's 63; above 63 scales the population proportionally)")
	clips := flag.Int("clips", 0, "limit clips per user (0 = each user's own playlist progress)")
	stream := flag.Bool("stream", false, "stream records into mergeable aggregates instead of retaining them (population-scale mode)")
	out := flag.String("out", "", "write the trace as CSV to this file")
	jsonOut := flag.String("json", "", "write the trace as JSON to this file")
	figure := flag.String("figure", "", "regenerate one figure (fig01..fig28)")
	figuresAll := flag.Bool("figures", false, "regenerate every figure")
	sites := flag.Bool("sites", false, "print server sites and user population, then exit")
	timeline := flag.Bool("timeline", false, "run the Figure-1 single-session timeline, then exit")
	sweep := flag.String("sweep", "", "run a named campaign sweep over a reduced 14-user/8-clip base study at calibration seed 9 (\"list\" to enumerate; -seed/-users/-clips resize the base)")
	parallel := flag.Int("parallel", 0, "campaign worker pool size (0 = all cores)")
	dynamics := flag.String("dynamics", "", "apply a named network-dynamics profile to the run (\"list\" to enumerate the catalog)")
	intensity := flag.Float64("intensity", 0, "dynamics profile intensity (0 = the calibrated 1x); requires -dynamics")
	workloadName := flag.String("workload", "", "run the study open-loop under a named arrival-process profile (\"list\" to enumerate the catalog; default: the closed-loop panel)")
	load := flag.Float64("load", 0, "open-loop arrival intensity (0 = the calibrated 1x); requires -workload")
	arrivals := flag.Int("arrivals", 0, "open-loop session budget (0 = twice the template pool); requires -workload")
	selection := flag.String("selection", "", "open-loop server-selection policy: pinned, rtt, roundrobin, leastloaded (\"list\" to enumerate); requires -workload")
	shards := flag.Int("shards", 0, "partition the world across N cores under conservative-lookahead synchronization (0 = classic single-threaded engine; output is byte-identical for every N); requires -workload")
	checkpointFile := flag.String("checkpoint", "", "snapshot the warm world to this file at the -warmup instant, then continue to completion; requires -warmup")
	resumeFile := flag.String("resume", "", "replay a -checkpoint snapshot to completion under its own options (incompatible with world-shaping flags)")
	warmup := flag.Duration("warmup", 0, "simulated-time instant at which -checkpoint snapshots the world (e.g. 10m); requires -checkpoint")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memprofile := flag.String("memprofile", "", "write an allocation profile at exit to this file (go tool pprof)")
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	// A dependent flag without its governing flag is a hard error, not a
	// silent no-op: -intensity scales a dynamics profile, and the
	// open-loop knobs parameterize a workload. ("list" requests pass —
	// they only enumerate a catalog.)
	if set["intensity"] && !set["dynamics"] {
		fatalf("-intensity scales a dynamics profile; give -dynamics NAME (or -dynamics list)")
	}
	if *workloadName == "" && *selection != "list" {
		for _, dep := range []string{"selection", "load", "arrivals", "shards"} {
			if set[dep] {
				fatalf("-%s configures the open-loop engine; give -workload NAME (or -workload list)", dep)
			}
		}
	}
	if msg := checkpointFlagError(set); msg != "" {
		fatalf("%s", msg)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatalf("create %s: %v", *cpuprofile, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatalf("create %s: %v", *memprofile, err)
			}
			runtime.GC() // up-to-date allocation statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatalf("memprofile: %v", err)
			}
			f.Close()
		}()
	}

	if *sites {
		printSites(*seed)
		return
	}
	if *dynamics == "list" {
		fmt.Println("network-dynamics profiles:")
		for _, p := range study.DynamicsProfiles() {
			fmt.Printf("  %-12s %s\n", p.Name, p.Description)
		}
		return
	}
	if *workloadName == "list" {
		fmt.Println("workload profiles:")
		for _, p := range workload.Profiles() {
			fmt.Printf("  %-12s %s\n", p.Name, p.Description)
		}
		return
	}
	if *selection == "list" {
		fmt.Println("server-selection policies (open-loop only):")
		for _, name := range workload.PolicyNames() {
			fmt.Printf("  %s\n", name)
		}
		return
	}
	if *sweep != "" {
		if *out != "" || *jsonOut != "" || *figure != "" || *figuresAll || *timeline {
			fatalf("-sweep is incompatible with -out/-json/-figure/-figures/-timeline")
		}
		if *dynamics != "" {
			fatalf("-sweep is incompatible with -dynamics: the fault-injection sweep families (outage, flashcrowd, lossburst, diurnal) set their own profiles")
		}
		if *workloadName != "" || *selection != "" {
			fatalf("-sweep is incompatible with -workload/-selection: the open-loop sweep families (selection, churn) set their own workloads")
		}
		// Unless -seed was given explicitly, sweeps run at the seed-9
		// calibration base the ablation benches record, not the study
		// default of 1.
		sweepSeed := int64(0)
		if set["seed"] {
			sweepSeed = *seed
		}
		runSweep(*sweep, sweepSeed, *users, *clips, *parallel, *stream)
		return
	}
	if *timeline || *figure == "fig01" {
		fig, st, err := core.Fig01Timeline(*seed)
		if err != nil {
			fatalf("fig01: %v", err)
		}
		fig.Render(os.Stdout)
		for _, pt := range st.Timeline {
			fmt.Printf("t=%5.1fs bandwidth=%7.1fKbps fps=%4.1f\n", pt.T.Seconds(), pt.Kbps, pt.FPS)
		}
		return
	}

	opts := core.StudyOptions{Seed: *seed, MaxUsers: *users, ClipCap: *clips,
		Dynamics: *dynamics, DynamicsIntensity: *intensity,
		Workload: *workloadName, WorkloadIntensity: *load,
		Arrivals: *arrivals, Selection: *selection, Shards: *shards}
	if *stream {
		if *jsonOut != "" {
			fatalf("-json needs the retained-records path; use -out for a streaming CSV")
		}
		runStreaming(opts, *out, *figure, *figuresAll)
		return
	}
	if *users > geo.PopulationSize {
		fmt.Fprintf(os.Stderr, "note: retaining every record of a %d-user study; -stream bounds memory by aggregate size\n", *users)
	}

	var res *core.StudyResult
	var err error
	switch {
	case *resumeFile != "":
		res, err = runResumed(*resumeFile)
	case *checkpointFile != "":
		res, err = runWithCheckpoint(opts, *checkpointFile, *warmup)
	default:
		res, err = core.RunStudy(opts)
	}
	if err != nil {
		fatalf("study: %v", err)
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatalf("create %s: %v", *out, err)
		}
		if err := trace.WriteCSV(f, res.Records); err != nil {
			fatalf("write csv: %v", err)
		}
		f.Close()
		fmt.Printf("wrote %d records to %s\n", len(res.Records), *out)
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fatalf("create %s: %v", *jsonOut, err)
		}
		if err := trace.WriteJSON(f, res.Records); err != nil {
			fatalf("write json: %v", err)
		}
		f.Close()
		fmt.Printf("wrote %d records to %s\n", len(res.Records), *jsonOut)
	}

	switch {
	case *figure != "":
		fig, err := core.RunFigure(*figure, res.Records)
		if err != nil {
			fatalf("%v", err)
		}
		fig.Render(os.Stdout)
	case *figuresAll:
		core.RenderAll(os.Stdout, res.Records)
	default:
		printSummary(res)
	}
}

// runStreaming executes one study through the streaming pipeline: records
// flow into a figure-aggregate build (and optionally a CSV file) as clips
// complete, and nothing is retained.
func runStreaming(opts core.StudyOptions, out, figure string, figuresAll bool) {
	agg := figures.NewAggregates()
	sink := trace.MultiSink{agg}
	var csvSink *trace.CSVSink
	var csvFile *os.File
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fatalf("create %s: %v", out, err)
		}
		csvFile = f
		csvSink = trace.NewCSVSink(f)
		sink = append(sink, csvSink)
	}
	res, err := core.RunStudyStream(opts, sink)
	if err != nil {
		fatalf("study: %v", err)
	}
	if csvSink != nil {
		if err := csvSink.Flush(); err != nil {
			fatalf("write csv: %v", err)
		}
		csvFile.Close()
		fmt.Printf("streamed %d records to %s\n", csvSink.Count(), out)
	}
	switch {
	case figure != "":
		fig, err := core.RunFigureAgg(figure, agg)
		if err != nil {
			fatalf("%v", err)
		}
		fig.Render(os.Stdout)
	case figuresAll:
		core.RenderAllAgg(os.Stdout, agg)
	default:
		printStreamSummary(agg, res)
	}
}

// printStreamSummary prints the headline numbers straight from the
// aggregates — the streamed twin of printSummary.
func printStreamSummary(agg *figures.Aggregates, res *core.StudyResult) {
	fmt.Printf("study complete (streamed): %d users, %d clip attempts over %v of virtual time (%d events)\n",
		len(res.Users), agg.Total(), res.SimDuration.Round(1e9), res.Events)
	printOpenLoopLine(res)
	fmt.Printf("  played=%d unavailable=%d (%.1f%%) rated=%d\n",
		agg.Played(), agg.Unavailable(), 100*float64(agg.Unavailable())/float64(agg.Total()), agg.Rated())
	fmt.Printf("  transport: TCP=%d UDP=%d\n", agg.ProtocolPlayed("TCP"), agg.ProtocolPlayed("UDP"))
	if cdf, err := agg.FrameRate().CDF(); err == nil {
		fmt.Printf("  frame rate: mean=%.1f fps, below 3 fps %.0f%%, 15+ fps %.0f%%\n",
			agg.FrameRate().Mean(), 100*cdf.FractionBelow(3), 100*cdf.FractionAtLeast(15))
	}
	if jcdf, err := agg.Jitter().CDF(); err == nil {
		fmt.Printf("  jitter: <=50ms %.0f%%, >=300ms %.0f%%\n", 100*jcdf.At(50), 100*jcdf.FractionAtLeast(300))
	}
	printWorkloadRows(agg)
	fmt.Println("run with -figures (or -figure figNN) for the full evaluation output")
}

// printOpenLoopLine summarizes the session lifecycle of an open-loop run
// that admitted anyone and, for a sharded run, what the window protocol did.
// The two are independent: a sharded world that admitted no session still
// ran windows. The closed panel prints nothing (it admits no sessions, and
// Options refuses to shard it).
func printOpenLoopLine(res *core.StudyResult) {
	if res.Sessions > 0 {
		fmt.Printf("  open-loop: %d sessions admitted, %d balked, %d departed mid-stream\n",
			res.Sessions, res.Balked, res.Departed)
	}
	if res.Windows.Windows > 0 {
		fmt.Printf("  sharded: %v\n", res.Windows)
	}
}

// runSweep executes one registered campaign sweep across the worker pool
// and prints a per-scenario summary plus the campaign wall-clock. In
// streaming mode each scenario aggregates in place and the partials merge
// deterministically in input order.
func runSweep(name string, seed int64, users, clips, workers int, stream bool) {
	if name == "list" {
		fmt.Println("registered sweeps:")
		for _, sw := range campaign.Sweeps() {
			fmt.Printf("  %-12s %s\n", sw.Name, sw.Description)
		}
		return
	}
	sw, ok := campaign.SweepByName(name)
	if !ok {
		fatalf("unknown sweep %q (try -sweep list)", name)
	}
	base := campaign.ReducedBase(seed)
	if users != 0 {
		base.MaxUsers = users
	}
	if clips != 0 {
		base.ClipCap = clips
	}
	scenarios := sw.Scenarios(base)
	fmt.Printf("sweep %s: base study %d users x %d clips (seed %d); -users/-clips resize it\n",
		sw.Name, base.MaxUsers, base.ClipCap, base.Seed)
	cfg := core.CampaignConfig{Workers: workers, BaseSeed: base.Seed}
	var merged *figures.Aggregates
	var sum *core.CampaignSummary
	if stream {
		merged, sum = core.RunCampaignAggregates(scenarios, cfg)
	} else {
		sum = core.RunCampaign(scenarios, cfg)
	}
	for _, r := range sum.Results {
		if r.Err != nil {
			fmt.Printf("  %-16s FAILED: %v\n", r.Scenario.Name, r.Err)
			continue
		}
		if stream {
			part := r.Sink.(*figures.Aggregates)
			jcdf, _ := part.Jitter().CDF()
			printScenarioLine(r, part.Total(), part.Played(), part.FrameRate().Mean(), jcdf)
		} else {
			played := trace.Played(r.Result.Records)
			fps := trace.Values(played, func(rec *trace.Record) float64 { return rec.MeasuredFPS })
			jit := trace.Values(played, func(rec *trace.Record) float64 { return rec.JitterMs })
			jcdf, _ := stats.NewCDF(jit)
			printScenarioLine(r, len(r.Result.Records), len(played), stats.Mean(fps), jcdf)
		}
	}
	if merged == nil {
		// Retained mode: fold the records into aggregates anyway so the
		// robustness breakdown prints either way.
		merged = figures.Aggregate(sum.Records())
	} else {
		fmt.Printf("  merged: attempts=%d played=%d rated=%d mean %.1f fps across the sweep\n",
			merged.Total(), merged.Played(), merged.Rated(), merged.FrameRate().Mean())
	}
	printRobustness(merged)
	printWorkloadRows(merged)
	fmt.Printf("sweep %s: %d scenarios on %d workers in %v\n",
		sw.Name, len(sum.Results), sum.Workers, sum.Elapsed.Round(1e6))
	if err := sum.Err(); err != nil {
		fatalf("%v", err)
	}
}

// printWorkloadRows prints the per-selection-policy workload breakdown —
// startup delay, stalls, and how evenly plays spread across the mirrors —
// plus the concurrent-session peak. Panel-only aggregates print nothing.
func printWorkloadRows(agg *figures.Aggregates) {
	rows := agg.Workload()
	if len(rows) == 0 {
		return
	}
	fmt.Println("  workload by selection policy (per played clip):")
	for _, r := range rows {
		fmt.Printf("    %-12s played=%-4d failed=%-3d startup mean=%.1fs  rebuffers mean=%.2f  servers=%-2d load-balance CV=%.2f\n",
			r.Policy, r.Played, r.Failed, r.MeanStartupSec, r.MeanRebuffers, r.Servers, r.LoadBalance)
	}
	if peak, at := agg.PeakConcurrency(); peak > 0 {
		fmt.Printf("  concurrency: peak %d clips in flight at minute %d\n", peak, at)
	}
}

// printRobustness prints the per-dynamics-condition robustness breakdown:
// how delivery degraded (or did not) under each network-weather regime. A
// single steady condition prints nothing — there is no contrast to show.
func printRobustness(agg *figures.Aggregates) {
	rows := agg.Robustness()
	if len(rows) < 2 {
		return
	}
	fmt.Println("  robustness by dynamics condition (per played clip):")
	for _, r := range rows {
		fmt.Printf("    %-16s played=%-4d failed=%-3d rebuffers mean=%.2f p90=%.0f  switches mean=%.2f  %.1f fps\n",
			r.Condition, r.Played, r.Failed, r.MeanRebuffers, r.P90Rebuffers, r.MeanSwitches, r.MeanFPS)
	}
}

// printScenarioLine prints one sweep scenario's summary — the same line
// whether the stats came from retained records or streamed aggregates.
func printScenarioLine(r campaign.ScenarioResult, attempts, played int, meanFPS float64, jcdf stats.CDF) {
	fmt.Printf("  %-16s seed=%-20d attempts=%-4d played=%-4d mean %.1f fps  jitter<=50ms %.0f%%  [%v]\n",
		r.Scenario.Name, r.Scenario.Options.Seed, attempts, played,
		meanFPS, 100*jcdf.At(50), r.Elapsed.Round(1e6))
}

func printSummary(res *core.StudyResult) {
	played := trace.Played(res.Records)
	rated := trace.Rated(res.Records)
	var unavailable int
	protos := map[string]int{}
	for _, r := range res.Records {
		if r.Unavailable {
			unavailable++
		}
	}
	var fps, jit []float64
	for _, r := range played {
		protos[r.Protocol]++
		fps = append(fps, r.MeasuredFPS)
		jit = append(jit, r.JitterMs)
	}
	sfps, _ := stats.Summarize(fps)
	cdf, _ := stats.NewCDF(fps)
	jcdf, _ := stats.NewCDF(jit)
	fmt.Printf("study complete: %d users, %d clip attempts over %v of virtual time (%d events)\n",
		len(res.Users), len(res.Records), res.SimDuration.Round(1e9), res.Events)
	printOpenLoopLine(res)
	fmt.Printf("  played=%d unavailable=%d (%.1f%%) rated=%d\n",
		len(played), unavailable, 100*float64(unavailable)/float64(len(res.Records)), len(rated))
	fmt.Printf("  transport: TCP=%d UDP=%d\n", protos["TCP"], protos["UDP"])
	fmt.Printf("  frame rate: mean=%.1f fps, below 3 fps %.0f%%, 15+ fps %.0f%%\n",
		sfps.Mean, 100*cdf.FractionBelow(3), 100*cdf.FractionAtLeast(15))
	fmt.Printf("  jitter: <=50ms %.0f%%, >=300ms %.0f%%\n", 100*jcdf.At(50), 100*jcdf.FractionAtLeast(300))
	fmt.Println("run with -figures (or -figure figNN) for the full evaluation output")
}

func printSites(seed int64) {
	fmt.Println("RealServer sites (Figures 3, 8, 10):")
	for _, s := range geo.Sites() {
		fmt.Printf("  %-14s host=%-9s country=%-9s region=%-10s unavailability=%.0f%% clips=%d\n",
			s.Name, s.Host, s.Country, s.Region, 100*s.Unavailability, s.Clips)
	}
	users := geo.Population(seed + 1)
	byCountry := map[string]int{}
	for _, u := range users {
		byCountry[u.Country]++
	}
	fmt.Printf("User population (Figures 4, 7): %d users\n", len(users))
	for c, n := range byCountry {
		fmt.Printf("  %-12s %d\n", c, n)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
