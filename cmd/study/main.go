// Command study runs the full simulated RealTracer measurement campaign and
// regenerates the paper's figures from the resulting trace.
//
// Usage:
//
//	study [-seed N] [-users N] [-clips N] [-out trace.csv]
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
// cores). `-sweep list` enumerates the registered sweeps. None of these
// four modes builds the study world the other flags describe, so an output,
// figure, snapshot or world-shaping flag a mode does not read is an error,
// as is an unknown -figure; both are caught before anything runs.
//
// There is one record pipeline. Every record leaves the world through its
// sink, and the sink here is a mergeable figure-aggregate build (plus, with
// -out, a CSV writer that streams rows as clips complete): the summary and
// every figure are computed from the aggregates, so memory is bounded by
// aggregate size, not by record count, and -users may exceed the paper's 63
// (the population is scaled proportionally):
//
//	study -users 1000 -clips 5 -figures
//
// The record set itself is retained only when something needs it: -json
// writes it out after the run, and a -checkpoint snapshot carries the
// prefix's records so that -resume ... -out reproduces the whole trace.
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
// checkpoint needs a classic engine, so -shards refuses to combine with it.
// Divergent-scenario forks from one snapshot are the campaign API's job
// (campaign.RunWarmForks).
//
// -cpuprofile/-memprofile write pprof profiles of the run, so hot-path work
// (the zero-allocation discrete-event core) can keep attacking the profile.
// -memprofile records every allocation, not a sample, so its object counts
// are exact (and the run slower; profile CPU in a separate run) — except for
// pointer-free objects under 16 bytes, which the runtime packs into 16-byte
// blocks and profiles once per block:
//
//	study -users 1000 -clips 3 -cpuprofile cpu.out
//	study -users 1000 -clips 3 -memprofile mem.out
//	go tool pprof -sample_index=alloc_objects -top study mem.out
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"time"

	"realtracer/internal/campaign"
	"realtracer/internal/core"
	"realtracer/internal/figures"
	"realtracer/internal/geo"
	"realtracer/internal/study"
	"realtracer/internal/trace"
	"realtracer/internal/workload"
)

func main() {
	seed := flag.Int64("seed", 1, "study random seed (one seed = one reproducible campaign)")
	users := flag.Int("users", 0, "number of users (0 = the paper's 63; above 63 scales the population proportionally)")
	clips := flag.Int("clips", 0, "limit clips per user (0 = each user's own playlist progress)")
	out := flag.String("out", "", "write the trace as CSV to this file, streamed as clips complete")
	jsonOut := flag.String("json", "", "write the trace as JSON to this file (retains every record until the run ends)")
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
	memprofile := flag.String("memprofile", "", "write an allocation profile at exit to this file (go tool pprof); the run then records every allocation (runtime.MemProfileRate = 1), so it is exact but for pointer-free objects under 16 bytes (one per tiny-allocator block), and slower")
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
		fatalf("study: %s", msg)
	}
	if msg := modeFlagError(set, *figure); msg != "" {
		fatalf("study: %s", msg)
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
		// Exact, and set before any world is built: at the default one sample
		// per 512 KiB, alloc_objects on a run of a few hundred thousand small
		// objects misattributes by an order of magnitude.
		runtime.MemProfileRate = 1
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
		// Unless -seed was given explicitly, sweeps run at the seed-9
		// calibration base the ablation benches record, not the study
		// default of 1.
		sweepSeed := int64(0)
		if set["seed"] {
			sweepSeed = *seed
		}
		runSweep(*sweep, sweepSeed, *users, *clips, *parallel)
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

	agg, res, err := studyRun{
		opts: study.Options{Seed: *seed, MaxUsers: *users, ClipCap: *clips,
			Dynamics: *dynamics, DynamicsIntensity: *intensity,
			Workload: *workloadName, WorkloadIntensity: *load,
			Arrivals: *arrivals, Selection: *selection, Shards: *shards},
		out: *out, jsonOut: *jsonOut,
		checkpoint: *checkpointFile, warmup: *warmup, resume: *resumeFile,
	}.run()
	if err != nil {
		fatalf("%v", err)
	}
	switch {
	case *figure != "":
		g, _ := figures.ByID(*figure) // modeFlagError refused an unknown id
		g.Agg(agg).Render(os.Stdout)
	case *figuresAll:
		for _, g := range figures.All() {
			g.Agg(agg).Render(os.Stdout)
		}
	default:
		printSummary(agg, res)
	}
}

// modeFlagError refuses what the command would otherwise ignore: an unknown
// -figure, caught before any world is built, and a flag beside a mode that
// never reads it. -sites prints the geography of -seed, -timeline (or -figure
// fig01) runs the Figure-1 session at -seed, and -sweep runs its own
// scenarios over -seed, -users and -clips: none of them builds the study
// world that the output, figure, snapshot and world-shaping flags describe.
// Returns "" when the combination is legal.
func modeFlagError(set map[string]bool, figure string) string {
	if _, ok := figures.ByID(figure); figure != "" && figure != "fig01" && !ok {
		return fmt.Sprintf("unknown figure %q (fig01..fig28; -figures renders them all)", figure)
	}
	var mode, own string
	var reads []string
	switch {
	case set["sites"]:
		mode, own = "-sites prints the geography of -seed", "sites"
	case set["timeline"]:
		mode, own = "-timeline runs the Figure-1 session at -seed", "timeline"
	case figure == "fig01":
		mode, own = "-figure fig01 runs the Figure-1 session at -seed", "figure"
	case set["sweep"]:
		mode, own, reads = "-sweep runs its own scenarios over -seed, -users and -clips", "sweep", []string{"users", "clips"}
	default:
		return ""
	}
	for _, f := range strings.Fields("sites timeline figure figures out json sweep checkpoint warmup resume users clips dynamics intensity workload load arrivals selection shards") {
		if set[f] && f != own && !slices.Contains(reads, f) {
			return fmt.Sprintf("%s, so it would ignore -%s; drop it", mode, f)
		}
	}
	return ""
}

// studyRun is one single-study invocation: the world to run (built from
// opts, or resumed from a snapshot) and where its records go.
type studyRun struct {
	opts       study.Options
	out        string // CSV file, streamed as clips complete
	jsonOut    string // JSON file, written after the run
	checkpoint string // snapshot file, written at the warmup instant
	warmup     time.Duration
	resume     string // snapshot file to replay instead of building from opts
}

// run executes the study through the one record pipeline: every record
// flows into a figure-aggregate build and, with out set, a streaming CSV
// writer. The world streams straight into those sinks and retains nothing —
// unless the record set itself is needed (jsonOut writes it; a checkpoint
// snapshot carries the prefix's records so that a resume can reproduce the
// whole trace), in which case the world keeps its default collector and
// the records are replayed into the sinks after the run.
func (r studyRun) run() (*figures.Aggregates, *study.Result, error) {
	agg := figures.NewAggregates()
	sink := trace.MultiSink{agg}
	var csvFile *os.File
	var csvSink *trace.CSVSink
	if r.out != "" {
		f, err := os.Create(r.out)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close() // error paths; closeOutput checks the one that matters
		csvFile, csvSink = f, trace.NewCSVSink(f)
		sink = append(sink, csvSink)
	}

	w, err := r.world()
	if err != nil {
		return nil, nil, err
	}
	if r.jsonOut == "" && r.checkpoint == "" && r.resume == "" {
		w.SetSink(sink)
	} else if _, ok := w.Sink().(*trace.Collector); !ok {
		return nil, nil, fmt.Errorf("study: resume %s: snapshot carries a %T sink, not the records -checkpoint writes", r.resume, w.Sink())
	}
	if r.checkpoint != "" {
		if err := writeCheckpoint(w, r.checkpoint, r.warmup); err != nil {
			return nil, nil, err
		}
	}
	res, err := w.Run()
	if err != nil {
		return nil, nil, err
	}
	for _, rec := range res.Records { // nil unless the world retained them
		sink.Observe(rec)
	}

	if csvSink != nil {
		if err := closeOutput(csvFile, csvSink.Flush()); err != nil {
			return nil, nil, err
		}
		fmt.Printf("wrote %d records to %s\n", csvSink.Count(), r.out)
	}
	if r.jsonOut != "" {
		f, err := os.Create(r.jsonOut)
		if err != nil {
			return nil, nil, err
		}
		if err := closeOutput(f, trace.WriteJSON(f, res.Records)); err != nil {
			return nil, nil, err
		}
		fmt.Printf("wrote %d records to %s\n", len(res.Records), r.jsonOut)
	}
	return agg, res, nil
}

// closeOutput closes an output file after its last write and reports the
// first failure of the write, its flush or the close as "write FILE: ...".
func closeOutput(f *os.File, err error) error {
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", f.Name(), err)
	}
	return nil
}

// printSummary prints the headline numbers from the aggregates.
func printSummary(agg *figures.Aggregates, res *study.Result) {
	fmt.Printf("study complete: %d users, %d clip attempts over %v of virtual time (%d events)\n",
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
func printOpenLoopLine(res *study.Result) {
	if res.Sessions > 0 {
		fmt.Printf("  open-loop: %d sessions admitted, %d balked, %d departed mid-stream\n",
			res.Sessions, res.Balked, res.Departed)
	}
	if res.Windows.Windows > 0 {
		fmt.Printf("  sharded: %v\n", res.Windows)
	}
}

// runSweep executes one registered campaign sweep across the worker pool
// and prints a per-scenario summary plus the campaign wall-clock. Each
// scenario aggregates in place and the partials merge deterministically in
// input order.
func runSweep(name string, seed int64, users, clips, workers int) {
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
	merged, sum := core.RunCampaignAggregates(scenarios, campaign.Config{Workers: workers, BaseSeed: base.Seed})
	for _, r := range sum.Results {
		if r.Err != nil {
			fmt.Printf("  %-16s FAILED: %v\n", r.Scenario.Name, r.Err)
			continue
		}
		part := r.Sink.(*figures.Aggregates)
		jcdf, _ := part.Jitter().CDF()
		fmt.Printf("  %-16s seed=%-20d attempts=%-4d played=%-4d mean %.1f fps  jitter<=50ms %.0f%%  [%v]\n",
			r.Scenario.Name, r.Scenario.Options.Seed, part.Total(), part.Played(),
			part.FrameRate().Mean(), 100*jcdf.At(50), r.Elapsed.Round(1e6))
	}
	fmt.Printf("  merged: attempts=%d played=%d rated=%d mean %.1f fps across the sweep\n",
		merged.Total(), merged.Played(), merged.Rated(), merged.FrameRate().Mean())
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

func printSites(seed int64) {
	fmt.Println("RealServer sites (Figures 3, 8, 10):")
	for _, s := range geo.Sites() {
		fmt.Printf("  %-14s host=%-9s country=%-9s region=%-10s unavailability=%.0f%% clips=%d\n",
			s.Name, s.Host, s.Country, s.Region, 100*s.Unavailability, s.Clips)
	}
	users := geo.Population(study.Options{Seed: seed}.PopulationSeed())
	byCountry := map[string]int{}
	for _, u := range users {
		byCountry[u.Country]++
	}
	fmt.Printf("User population (Figures 4, 7): %d users\n", len(users))
	countries := make([]string, 0, len(byCountry))
	for c := range byCountry {
		countries = append(countries, c)
	}
	sort.Slice(countries, func(i, j int) bool { // by count, then name
		a, b := countries[i], countries[j]
		if byCountry[a] != byCountry[b] {
			return byCountry[a] > byCountry[b]
		}
		return a < b
	})
	for _, c := range countries {
		fmt.Printf("  %-12s %d\n", c, byCountry[c])
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
