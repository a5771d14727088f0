// Command study runs the full simulated RealTracer measurement campaign and
// regenerates the paper's figures from the resulting trace.
//
// Usage:
//
//	study [-seed N] [-users N] [-clips N] [-out trace.csv]
//	      [-json trace.json] [-figure figNN | -figures] [-sites]
//	      [-sweep NAME|list] [-parallel N] [-dynamics NAME|list] [-intensity K]
//	      [-workload NAME|list] [-load K] [-arrivals N] [-selection NAME|list]
//	      [-shards N] [-checkpoint FILE -warmup DUR] [-resume FILE]
//	      [-cpuprofile FILE] [-memprofile FILE]
//
// With no figure flags it prints the campaign's headline numbers. -figure
// regenerates one figure (fig01 runs the single-session Figure-1
// experiment); -figures all of them; -sites prints the server/user geography
// (the stand-in for the paper's map Figures 3 and 4). -sweep runs a named
// multi-scenario campaign (seed replicas or an ablation) through the
// parallel campaign engine; -parallel bounds its worker pool (0 = all
// cores). `list` as the value of -sweep, -dynamics, -workload or -selection
// enumerates that catalog. Each of these is a mode, and one table (modes)
// names the flags each mode reads and the flag each dependent flag needs: a
// flag the chosen mode does not read, a dependent flag alone and an unknown
// -figure or -sweep are each one `study: …` line, caught before anything
// runs.
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
// simulated Internet; -intensity scales it. The fault-injection sweep
// families (outage, flashcrowd, lossburst, diurnal) run the same profiles
// across intensity levels against a dynamics-off control arm via -sweep.
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
// Forks of one snapshot are the campaign API's job (campaign.RunWarmForks):
// a fork is a name, runs the snapshot's own options too and only restarts
// the random streams from its name.
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
	"errors"
	"flag"
	"fmt"
	"maps"
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

// options holds the command's flags, and in given the ones the command line
// set (name → value).
type options struct {
	given                                                 map[string]string
	seed                                                  int64
	users, clips, parallel, arrivals, shards              int
	out, jsonOut, figure, sweep, dynamics, workload       string
	selection, checkpoint, resume, cpuprofile, memprofile string
	figures, sites                                        bool
	intensity, load                                       float64
	warmup                                                time.Duration
}

// parse defines the command's flags on fs, parses args and checks the flags
// given against the table, before anything runs.
func parse(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{given: map[string]string{}}
	fs.Int64Var(&o.seed, "seed", 1, "study random seed (one seed = one reproducible campaign)")
	fs.IntVar(&o.users, "users", 0, "number of users (0 = the paper's 63; above 63 scales the population proportionally)")
	fs.IntVar(&o.clips, "clips", 0, "limit clips per user (0 = each user's own playlist progress)")
	fs.StringVar(&o.out, "out", "", "write the trace as CSV to this file, streamed as clips complete")
	fs.StringVar(&o.jsonOut, "json", "", "write the trace as JSON to this file (retains every record until the run ends)")
	fs.StringVar(&o.figure, "figure", "", "regenerate one figure (fig01..fig28; fig01 runs the single-session timeline)")
	fs.BoolVar(&o.figures, "figures", false, "regenerate every figure")
	fs.BoolVar(&o.sites, "sites", false, "print server sites and user population, then exit")
	fs.StringVar(&o.sweep, "sweep", "", "run a named campaign sweep over a reduced 14-user/8-clip base study at calibration seed 9 (\"list\" to enumerate; -seed/-users/-clips resize the base)")
	fs.IntVar(&o.parallel, "parallel", 0, "campaign worker pool size (0 = all cores); requires -sweep")
	fs.StringVar(&o.dynamics, "dynamics", "", "apply a named network-dynamics profile to the run (\"list\" to enumerate the catalog)")
	fs.Float64Var(&o.intensity, "intensity", 0, "dynamics profile intensity (0 = the calibrated 1x); requires -dynamics")
	fs.StringVar(&o.workload, "workload", "", "run the study open-loop under a named arrival-process profile (\"list\" to enumerate the catalog; default: the closed-loop panel)")
	fs.Float64Var(&o.load, "load", 0, "open-loop arrival intensity (0 = the calibrated 1x); requires -workload")
	fs.IntVar(&o.arrivals, "arrivals", 0, "open-loop session budget (0 = twice the template pool); requires -workload")
	fs.StringVar(&o.selection, "selection", "", "open-loop server-selection policy: pinned, rtt, roundrobin, leastloaded (\"list\" to enumerate); requires -workload")
	fs.IntVar(&o.shards, "shards", 0, "partition the world across N cores under conservative-lookahead synchronization (0 = classic single-threaded engine; output is byte-identical for every N); requires -workload")
	fs.StringVar(&o.checkpoint, "checkpoint", "", "snapshot the warm world to this file at the -warmup instant, then continue to completion; requires -warmup")
	fs.StringVar(&o.resume, "resume", "", "replay a -checkpoint snapshot to completion under its own options (incompatible with world-shaping flags)")
	fs.DurationVar(&o.warmup, "warmup", 0, "simulated-time instant at which -checkpoint snapshots the world (e.g. 10m); requires -checkpoint")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	fs.StringVar(&o.memprofile, "memprofile", "", "write an allocation profile at exit to this file (go tool pprof); the run then records every allocation (runtime.MemProfileRate = 1), so it is exact but for pointer-free objects under 16 bytes (one per tiny-allocator block), and slower")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	fs.Visit(func(f *flag.Flag) { o.given[f.Name] = f.Value.String() })
	if msg := flagError(o.given); msg != "" {
		return nil, errors.New("study: " + msg)
	}
	return o, nil
}

// A mode is one thing the command does. key names the flags that select it,
// each as NAME or NAME=VALUE ("" selects the study run); reads names the
// flags it reads besides those and the profile flags every mode reads; run
// does it.
type mode struct {
	key, does, reads string
	run              func(*options)
}

// modes is the command's one flag table, most specific mode first.
var modes = []mode{
	{"sites=true", "-sites prints the geography of -seed", "seed", printSites},
	{"dynamics=list", "-dynamics list prints the dynamics catalog", "", func(*options) {
		fmt.Println("network-dynamics profiles:")
		for _, p := range study.DynamicsProfiles() {
			fmt.Printf("  %-12s %s\n", p.Name, p.Description)
		}
	}},
	{"workload=list", "-workload list prints the workload catalog", "", func(*options) {
		fmt.Println("workload profiles:")
		for _, p := range workload.Profiles() {
			fmt.Printf("  %-12s %s\n", p.Name, p.Description)
		}
	}},
	{"selection=list", "-selection list prints the selection policies", "", func(*options) {
		fmt.Println("server-selection policies (open-loop only):")
		for _, name := range workload.PolicyNames() {
			fmt.Printf("  %s\n", name)
		}
	}},
	{"sweep=list", "-sweep list prints the registered sweeps", "", func(*options) {
		fmt.Println("registered sweeps:")
		for _, sw := range campaign.Sweeps() {
			fmt.Printf("  %-12s %s\n", sw.Name, sw.Description)
		}
	}},
	{"figure=fig01", "-figure fig01 runs the Figure-1 session at -seed", "seed", func(o *options) {
		fig, st, err := core.Fig01Timeline(o.seed)
		if err != nil {
			fatalf("fig01: %v", err)
		}
		fig.Render(os.Stdout)
		for _, pt := range st.Timeline {
			fmt.Printf("t=%5.1fs bandwidth=%7.1fKbps fps=%4.1f\n", pt.T.Seconds(), pt.Kbps, pt.FPS)
		}
	}},
	{"sweep", "-sweep runs its own scenarios over -seed, -users and -clips", "seed users clips parallel", runSweep},
	{"resume", "-resume replays the snapshot's own options", "out json figure figures", runStudy},
	{"checkpoint warmup", "-checkpoint snapshots an unsharded study world", "seed users clips out json figure figures dynamics intensity workload load arrivals selection", runStudy},
	{"", "the study run", "seed users clips out json figure figures dynamics intensity workload load arrivals selection shards", runStudy},
}

// everyMode names the flags every mode reads.
const everyMode = "cpuprofile memprofile"

// needs maps each dependent flag to the flag it needs beside it (with the
// value to give it) and what it does.
var needs = map[string][2]string{
	"intensity":  {"dynamics NAME", "scales a dynamics profile"},
	"load":       {"workload NAME", "configures the open-loop engine"},
	"arrivals":   {"workload NAME", "configures the open-loop engine"},
	"selection":  {"workload NAME", "configures the open-loop engine"},
	"shards":     {"workload NAME", "configures the open-loop engine"},
	"warmup":     {"checkpoint FILE", "positions the snapshot instant of a checkpoint run"},
	"checkpoint": {"warmup DUR", "needs its snapshot instant (e.g. -warmup 10m of simulated time)"},
}

// modeOf returns the mode the given flags (name → value) select.
func modeOf(given map[string]string) mode {
	for _, m := range modes {
		for _, k := range strings.Fields(m.key) {
			name, value, byValue := strings.Cut(k, "=")
			if v, ok := given[name]; ok && (!byValue || v == value) {
				return m
			}
		}
	}
	return modes[len(modes)-1]
}

// flagError checks the given flags (name → value) against the table before
// anything runs. It returns the one-line refusal for an unknown -figure or
// -sweep, a flag the selected mode does not read, -figure beside -figures
// (one mode reads both, but renders one or the other) or a dependent flag
// without the flag it needs, in that order and the flags in name order, and
// "" when the mode reads every flag given.
func flagError(given map[string]string) string {
	if f, ok := given["figure"]; ok {
		if _, known := figures.ByID(f); !known && f != "fig01" {
			return fmt.Sprintf("unknown figure %q (fig01..fig28; -figures renders them all)", f)
		}
	}
	if sw, ok := given["sweep"]; ok {
		if _, known := campaign.SweepByName(sw); !known && sw != "list" {
			return fmt.Sprintf("unknown sweep %q (try -sweep list)", sw)
		}
	}
	m := modeOf(given)
	reads := strings.Fields(m.key + " " + m.reads + " " + everyMode)
	names := slices.Sorted(maps.Keys(given))
	for _, f := range names {
		if !slices.ContainsFunc(reads, func(r string) bool { return r == f || strings.HasPrefix(r, f+"=") }) {
			return fmt.Sprintf("%s, so it would ignore -%s; drop it", m.does, f)
		}
	}
	if _, both := given["figures"]; both && given["figure"] != "" {
		return "-figure renders one figure, so it would ignore -figures; drop one of them"
	}
	for _, f := range names {
		need, ok := needs[f]
		gov, _, _ := strings.Cut(need[0], " ")
		if ok && m.key != f+"="+given[f] && !slices.Contains(names, gov) { // a list request needs nothing
			return fmt.Sprintf("-%s %s; give -%s", f, need[1], need[0])
		}
	}
	return ""
}

func main() {
	o, err := parse(flag.CommandLine, os.Args[1:])
	if err != nil {
		fatalf("%v", err)
	}

	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			fatalf("create %s: %v", o.cpuprofile, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if o.memprofile != "" {
		// Exact, and set before any world is built: at the default one sample
		// per 512 KiB, alloc_objects on a run of a few hundred thousand small
		// objects misattributes by an order of magnitude.
		runtime.MemProfileRate = 1
		defer func() {
			f, err := os.Create(o.memprofile)
			if err != nil {
				fatalf("create %s: %v", o.memprofile, err)
			}
			runtime.GC() // up-to-date allocation statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatalf("memprofile: %v", err)
			}
			f.Close()
		}()
	}

	modeOf(o.given).run(o)
}

// runStudy runs one study world, fresh, checkpointed or resumed, and prints
// its summary or the figures asked for.
func runStudy(o *options) {
	agg, res, err := o.run()
	if err != nil {
		fatalf("%v", err)
	}
	switch {
	case o.figure != "":
		g, _ := figures.ByID(o.figure) // flagError refused an unknown id
		g.Agg(agg).Render(os.Stdout)
	case o.figures:
		for _, g := range figures.All() {
			g.Agg(agg).Render(os.Stdout)
		}
	default:
		printSummary(agg, res)
	}
}

// run executes the study world the options describe (or the one -resume
// replays) through the one record pipeline: every record flows into a
// figure-aggregate build and, with -out, a streaming CSV writer. The world
// streams straight into those sinks and retains nothing — unless the record
// set itself is needed (-json writes it; a checkpoint snapshot carries the
// prefix's records so that a resume can reproduce the whole trace), in
// which case the world keeps its default collector and the records are
// replayed into the sinks after the run.
func (o *options) run() (*figures.Aggregates, *study.Result, error) {
	agg := figures.NewAggregates()
	sink := trace.MultiSink{agg}
	var csvFile *os.File
	var csvSink *trace.CSVSink
	if o.out != "" {
		f, err := os.Create(o.out)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close() // error paths; closeOutput checks the one that matters
		csvFile, csvSink = f, trace.NewCSVSink(f)
		sink = append(sink, csvSink)
	}

	w, err := o.world()
	if err != nil {
		return nil, nil, err
	}
	if o.jsonOut == "" && o.checkpoint == "" && o.resume == "" {
		w.SetSink(sink)
	} else if _, ok := w.Sink().(*trace.Collector); !ok {
		return nil, nil, fmt.Errorf("study: resume %s: snapshot carries a %T sink, not the records -checkpoint writes", o.resume, w.Sink())
	}
	if o.checkpoint != "" {
		if err := writeCheckpoint(w, o.checkpoint, o.warmup); err != nil {
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
		fmt.Printf("wrote %d records to %s\n", csvSink.Count(), o.out)
	}
	if o.jsonOut != "" {
		f, err := os.Create(o.jsonOut)
		if err != nil {
			return nil, nil, err
		}
		if err := closeOutput(f, trace.WriteJSON(f, res.Records)); err != nil {
			return nil, nil, err
		}
		fmt.Printf("wrote %d records to %s\n", len(res.Records), o.jsonOut)
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
func runSweep(o *options) {
	sw, _ := campaign.SweepByName(o.sweep) // flagError refused an unknown name
	// Unless -seed is given, sweeps run at the seed-9 calibration base the
	// ablation benches record, not the study default of 1.
	base := campaign.ReducedBase(0)
	if _, ok := o.given["seed"]; ok {
		base = campaign.ReducedBase(o.seed)
	}
	if o.users != 0 {
		base.MaxUsers = o.users
	}
	if o.clips != 0 {
		base.ClipCap = o.clips
	}
	scenarios := sw.Scenarios(base)
	fmt.Printf("sweep %s: base study %d users x %d clips (seed %d); -users/-clips resize it\n",
		sw.Name, base.MaxUsers, base.ClipCap, base.Seed)
	merged, sum := core.RunCampaignAggregates(scenarios, campaign.Config{Workers: o.parallel, BaseSeed: base.Seed})
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

func printSites(o *options) {
	fmt.Println("RealServer sites (Figures 3, 8, 10):")
	for _, s := range geo.Sites() {
		fmt.Printf("  %-14s host=%-9s country=%-9s region=%-10s unavailability=%.0f%% clips=%d\n",
			s.Name, s.Host, s.Country, s.Region, 100*s.Unavailability, s.Clips)
	}
	users := geo.Population(study.Options{Seed: o.seed}.PopulationSeed())
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
