package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"realtracer/internal/campaign"
	"realtracer/internal/figures"
	"realtracer/internal/study"
)

// procStart approximates process start (package initialisation runs within
// a millisecond of exec); setup_s is measured from it.
var procStart = time.Now()

// Rep-loop limits.
const (
	minReps    = 4 // timed reps an untraced run must collect, however long they take
	tracedReps = 3 // a traced run: untraced baseline reps (floor), then as many traced reps
	maxReruns  = 2 // noise-guard re-runs per workload
	setupRuns  = 3 // cold set-ups per run (this process plus two probes on the reference world)
	armRuns    = 3 // runs per comparison arm in a traced sharded2 run
	tracedPart = 2 // a traced run spends 1/tracedPart of -seconds on untraced reps
)

// worldStride spaces the world seeds of consecutive --seed values, so two
// seeds share no world.
const worldStride = 1000

// bench is one workload prepared for measurement in this process.
//
// A --seed names a *family* of worlds: world k is the workload's shape at
// seed×worldStride+k. The untraced run times a different world each rep
// (world 0 first, which the warm rep already ran, so that pair is the
// run's determinism check) and reports medians over them: the worlds' own
// work differs by 4–13% from one seed to the next, and a median over the
// family is what makes two --seed values comparable. The traced run stays
// on world 0 throughout, so every exact count belongs to one world.
type bench struct {
	wl    *workload
	seed  int64
	toy   bool
	lanes laneConfig

	cal    *calibrator
	worlds map[int]*world
	ref    repResult // world 0's warm rep

	forkStats []forkStat // warmfork16: one per campaign rep, warm rep first
}

// world is one member of the seed's family, prepared to run.
type world struct {
	opt study.Options
	// warmfork16 only: the warm-up instant (see warmupInstant) and the digest
	// of the cold straight-through run it was derived from.
	warmup     time.Duration
	coldDigest digest
}

// coldRun is one fresh process's set-up: process start to ready, and its
// peak RSS at that point (one whole study, plus the noise guard's table).
type coldRun struct {
	setupS, rssMiB float64
}

// forkStat is what campaign.WarmForkResult says about one warm-fork rep.
type forkStat struct {
	prefix, elapsed time.Duration
	forks           []float64 // per-fork wall seconds
}

// world generates (once) world k's inputs: its options and, for
// warmfork16, the warm-up instant from two cold runs. Untimed.
func (b *bench) world(k int) (*world, error) {
	if w, ok := b.worlds[k]; ok {
		return w, nil
	}
	w := &world{opt: b.wl.options(b.seed*worldStride+int64(k), b.toy)}
	if b.wl.forks > 0 {
		res, err := study.Run(w.opt)
		if err != nil {
			return nil, fmt.Errorf("warm-fork calibration: %w", err)
		}
		if w.warmup, err = warmupInstant(w.opt, res); err != nil {
			return nil, fmt.Errorf("warm-fork calibration: %w", err)
		}
		w.coldDigest = newDigest()
		w.coldDigest.records(res.Records)
	}
	if b.worlds == nil {
		b.worlds = map[int]*world{}
	}
	b.worlds[k] = w
	return w, nil
}

// warmShare is how much of a warm-fork world's work the shared prefix holds:
// the snapshot is taken once this share of the cold run's events has fired.
// A share of the *events*, not of the horizon: these worlds end in a long
// sparse tail, so a cut at 80% of the horizon (the issue's rule) leaves the
// sixteen forks anything from 0.5 to 1.8 s of work between them, and a rep's
// wall ranges over 1.0–1.9 s from world to world on equal event counts. At 90% of the events it stays within 1.4–1.7 s; a
// fork costs ≈ 100 ms and resuming the snapshot is a quarter of that.
const warmShare = 0.9

// warmupInstant drives a second cold world in steps of 1/200 of the horizon
// and returns the first boundary at which warmShare of the cold run's events
// have fired. (Never past the horizon: Run stops on completion, RunUntil
// would go on to fire lingering timers.)
func warmupInstant(opt study.Options, cold *study.Result) (time.Duration, error) {
	w, err := study.NewWorld(opt)
	if err != nil {
		return 0, err
	}
	step := max(cold.SimDuration/200, 1)
	t := step
	for ; t+step < cold.SimDuration; t += step {
		if err := w.RunUntil(t); err != nil {
			return 0, err
		}
		if float64(w.Clock.Fired()) >= warmShare*float64(cold.Events) {
			break
		}
	}
	return t, nil
}

// setup is everything between process start and the first timed rep: input
// generation (world k's options; for warmfork16 the cold runs that fix the
// warm-up instant), one untimed warm rep that grows the heap and fills lazily built
// tables, and the noise guard's 16 MiB table. The measuring process sets up
// on world 0 of its seed's family; the set-up probes on the reference world.
func (b *bench) setup(k int) error {
	ref, err := b.rep(k)
	if err != nil {
		return fmt.Errorf("warm rep: %w", err)
	}
	if err := ref.check(); err != nil {
		return fmt.Errorf("warm rep: %w", err)
	}
	b.ref = ref
	// Built after the warm rep so every reading is taken in the same state:
	// caches full of simulator data, the collector still busy.
	b.cal = newCalibrator(b.toy)
	return nil
}

func (b *bench) prepare(k int) error {
	_, err := b.world(k)
	return err
}

// rep runs world k once, untraced, through the public entry points.
func (b *bench) rep(k int) (repResult, error) {
	w, err := b.world(k)
	if err != nil {
		return repResult{}, err
	}
	if b.wl.forks > 0 {
		r, sum, err := b.wl.runWarmForks(w.opt, w.warmup)
		if err != nil {
			return r, err
		}
		st := forkStat{prefix: sum.WarmupElapsed, elapsed: sum.Elapsed}
		for _, f := range sum.Results {
			st.forks = append(st.forks, f.Elapsed.Seconds())
		}
		b.forkStats = append(b.forkStats, st)
		return r, nil
	}
	run, err := b.wl.runWorld(w.opt, nil, 0)
	if err != nil {
		return repResult{}, err
	}
	return run.repResult, nil
}

// sample is one attempted rep.
type sample struct {
	world          int
	res            repResult
	wall, cpu      time.Duration
	calib          time.Duration // the noise guard's reading just before the rep
	calibAfter     time.Duration // and just after it (host speed only)
	mallocs, bytes uint64
	gcCycles       uint32
	rerun          bool // measured in a noisy phase: re-run, kept out of the medians
	err            error
}

// timing is a finished rep loop.
type timing struct {
	samples []sample
	reruns  int
	gcCPU   float64 // GC CPU seconds across the loop
	allCPU  time.Duration
}

func (t *timing) attempted() int { return len(t.samples) }

func (t *timing) failures() []string {
	var out []string
	for i, s := range t.samples {
		if s.err != nil {
			out = append(out, fmt.Sprintf("rep %d (world %d): %v", i+1, s.world, s.err))
		}
	}
	return out
}

// kept selects the samples the medians are taken over.
func (t *timing) kept(get func(sample) float64) []float64 {
	var out []float64
	for _, s := range t.samples {
		if s.err == nil && !s.rerun {
			out = append(out, get(s))
		}
	}
	return out
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// measure runs rep until budget has elapsed and at least minReps good
// samples are in hand; prepare(k) generates world k's inputs outside the
// timed section. With family set each good rep moves on to the next
// world (0, 1, 2, …); otherwise every rep runs world 0. digests holds the
// digest each world is known to produce (world 0's, from the warm rep, to
// begin with): a world run again — the first timed rep, every noise re-run,
// every rep of a traced run — must reproduce it.
//
// Before each rep the noise guard takes a reading; a rep that started more
// than 10% over the process's typical reading is re-run (at most maxReruns
// times, counted, never silently dropped). It takes another after the rep,
// so the run's typical reading brackets every rep (calibrator.hostFactor). A rep fails if it returns an
// error or breaks a correctness rule; failed reps count as attempted and
// the loop gives up after a second round of minReps.
func measure(prepare func(world int) error, rep func(world int) (repResult, error), digests map[int]digest, family bool, cal *calibrator, budget time.Duration, minReps int) *timing {
	t := &timing{}
	gc0, cpu0 := gcCPUSeconds(), cpuTime()
	start := time.Now()
	good, k := 0, 0
	for (good < minReps && len(t.samples) < 2*minReps+maxReruns) || (good >= minReps && time.Since(start) < budget) {
		s := sample{world: k}
		err := prepare(k) // untimed: generating world k's inputs
		var r repResult
		if err == nil {
			s.calib = cal.run()
			m0, c0, t0 := readMem(), cpuTime(), time.Now()
			r, err = rep(k)
			s.res, s.wall, s.cpu = r, time.Since(t0), cpuTime()-c0
			m1 := readMem()
			s.mallocs, s.bytes, s.gcCycles = m1.mallocs-m0.mallocs, m1.bytes-m0.bytes, m1.gcCycles-m0.gcCycles
			s.calibAfter = cal.run()
		}
		noisy := cal.noisy(s.calib)
		if err == nil {
			err = r.check()
		}
		if want, ok := digests[k]; err == nil && ok && r.digest != want {
			err = fmt.Errorf("records digest %016x differs from this world's earlier run %016x (determinism)", uint64(r.digest), uint64(want))
		}
		s.err = err
		advance := family
		switch {
		case err != nil:
		case noisy && t.reruns < maxReruns:
			s.rerun = true
			t.reruns++
			digests[k] = r.digest
			advance = false
		default:
			digests[k] = r.digest
			good++
		}
		if advance {
			k++
		}
		t.samples = append(t.samples, s)
	}
	t.gcCPU, t.allCPU = gcCPUSeconds()-gc0, cpuTime()-cpu0
	return t
}

// runUntraced is `--trace 0`: the timed reps, one world of the family
// each, and the end-to-end metrics.
func (b *bench) runUntraced(seconds int, own coldRun, probes []coldRun) *report {
	rp := b.newReport(seconds, false)
	t := measure(b.prepare, b.rep, map[int]digest{0: b.ref.digest}, true, b.cal, time.Duration(seconds)*time.Second, minReps)
	rp.addTiming(t)

	// Interference on a shared host only ever slows a rep down, so the
	// timings report the fast quartile of the reps, not their median: the
	// median of ten runs moved 9–26% from run to run on the box this was
	// built on, the quartile 6–16%. The three timings are then expressed on
	// the reference host (hostFactor); the report keeps the raw statistic and
	// the raw reps beside each.
	f := b.cal.hostFactor()
	rp.HostFactor = f
	wall := summarize(t.kept(func(s sample) float64 { return s.wall.Seconds() }))
	rp.setE2E("wall_s", wall.Q1*f, wall.Q1, &wall)
	rate := summarize(t.kept(func(s sample) float64 { return float64(s.res.records) / s.wall.Seconds() }))
	rp.setE2E("records_per_s", rate.Q3/f, rate.Q3, &rate)
	allocs := summarize(t.kept(func(s sample) float64 { return float64(s.mallocs) / float64(s.res.records) }))
	rp.setE2E("allocs_per_record", allocs.Median, allocs.Median, &allocs)
	// Memory is read on the reference world only (see refSeed); set-up time
	// over this process's own set-up as well.
	setups := []float64{own.setupS}
	var rss []float64
	for _, c := range probes {
		setups, rss = append(setups, c.setupS), append(rss, c.rssMiB)
	}
	rd := summarize(rss)
	rp.setE2E("peak_rss_mb", rd.Median, rd.Median, &rd)
	sd := summarize(setups)
	rp.setE2E("setup_s", sd.Median*f, sd.Median, &sd)
	return rp
}

// runTraced is `--trace 1`: a short untraced loop for the baseline, one
// traced rep under a CPU profile, the layer ledger, and the workload's
// comparison arms. It reports every per-layer metric.
func (b *bench) runTraced(seconds int, traceOut string) *report {
	rp := b.newReport(seconds, true)
	m := map[string]float64{}

	t := measure(b.prepare, b.rep, map[int]digest{0: b.ref.digest}, false, b.cal,
		time.Duration(seconds)*time.Second/tracedPart, tracedReps)
	rp.addTiming(t)
	walls := t.kept(func(s sample) float64 { return s.wall.Seconds() })
	wall := median(walls)
	recs := float64(b.ref.records)

	// The traced reps, under one CPU profile. A single-world workload is
	// traced tracedReps times so the overhead can be judged fastest against
	// fastest (same world, same work: the minimum is the noise-free
	// reading) and the profile has three reps of samples; the serial fork
	// re-drive runs once.
	sp := newSpans()
	var prof bytes.Buffer
	profErr := startProfile(&prof)
	tracedWall := math.Inf(1)
	var tracedErr error
	for sp.rep = 1; sp.rep <= tracedReps && tracedErr == nil; sp.rep++ {
		rp.Attempted++
		t0 := time.Now()
		if b.wl.forks > 0 {
			tracedErr = b.tracedForks(sp, m)
			break
		}
		tracedErr = b.tracedWorld(sp, m)
		tracedWall = min(tracedWall, time.Since(t0).Seconds())
	}
	if profErr == nil {
		pprof.StopCPUProfile()
	}
	if tracedErr != nil {
		rp.fail("traced rep: %v", tracedErr)
	}
	if profErr != nil {
		rp.fail("cpu profile: %v", profErr)
	} else if shares, err := cpuShares(prof.Bytes()); err != nil {
		rp.fail("%v", err)
	} else {
		for _, bk := range cpuBuckets {
			m[bk+".cpu_share"] = shares[bk]
		}
	}
	if fastest := quantile(walls, 0); fastest > 0 && b.wl.forks == 0 {
		// (The serial fork re-drive is a different program from the
		// two-worker campaign; its ratio to the campaign's wall says nothing.)
		m["trace.overhead_share"] = tracedWall/fastest - 1
	}

	// Counts and ratios every workload has.
	m["study.sim_s"] = b.ref.sim.Seconds()
	m["study.sessions"] = float64(b.ref.sessions)
	m["study.balked"] = float64(b.ref.balked)
	m["study.departed"] = float64(b.ref.departed)
	m["simclock.events"] = float64(b.ref.events)
	m["simclock.events_per_record"] = float64(b.ref.events) / recs
	if wall > 0 {
		m["study.sim_x_realtime"] = b.ref.sim.Seconds() / wall
		if b.wl.forks == 0 { // a fork's event count includes the prefix it did not run
			m["simclock.ns_per_event"] = wall * 1e9 / float64(b.ref.events)
		}
	}
	if b.ref.sent > 0 {
		m["netsim.sent"] = float64(b.ref.sent)
		m["netsim.delivered"] = float64(b.ref.delivered)
		m["netsim.dropped"] = float64(b.ref.dropped)
		m["netsim.packets_per_record"] = float64(b.ref.sent) / recs
		m["netsim.drop_share"] = float64(b.ref.dropped) / float64(b.ref.sent)
		m["netsim.events_per_packet"] = float64(b.ref.events) / float64(b.ref.sent)
		m["server.played"] = float64(b.ref.played)
		m["server.torndown"] = float64(b.ref.torndown)
	}

	// Go runtime, over the untraced loop.
	m["runtime.bytes_per_record"] = median(t.kept(func(s sample) float64 { return float64(s.bytes) })) / recs
	m["runtime.gc_cycles"] = median(t.kept(func(s sample) float64 { return float64(s.gcCycles) }))
	if t.allCPU > 0 {
		m["runtime.gc_cpu_share"] = t.gcCPU / t.allCPU.Seconds()
	}
	m["runtime.heap_peak_mb"] = float64(readMem().heapSys) / (1 << 20)
	cpuOverWall := median(t.kept(func(s sample) float64 { return s.cpu.Seconds() / s.wall.Seconds() }))
	m["noise.calib_ms"] = b.cal.typical() / 1e6
	m["noise.reruns"] = float64(t.reruns)

	// Comparison arms.
	switch {
	case b.worlds[0].opt.Shards > 0:
		rp.Attempted++
		m["fabric.cpu_over_wall"] = cpuOverWall
		if err := b.fabricArms(m, wall); err != nil {
			rp.fail("fabric arms: %v", err)
		}
	case b.wl.forks > 0:
		rp.Attempted++
		m["campaign.cpu_over_wall"] = cpuOverWall
		b.campaignStats(m)
		if err := b.coldArm(m, wall); err != nil {
			rp.fail("cold campaign arm: %v", err)
		}
	}

	rp.Attempted++
	ledger, err := runLedger(b.lanes)
	if err != nil {
		rp.fail("%v", err)
	}
	for k, v := range ledger {
		m[k] = v
	}

	for _, def := range perLayer {
		rp.PerLayer[def.Name] = layerValue{Value: m[def.Name], Unit: def.Unit, Exact: def.Exact}
	}
	if traceOut != "" {
		if err := sp.writeChrome(traceOut); err != nil {
			rp.fail("trace-out: %v", err)
		}
	}
	return rp
}

// tracedWorld is the traced rep of a single-world workload.
func (b *bench) tracedWorld(sp *spans, m map[string]float64) error {
	root := sp.begin("rep")
	run, err := b.wl.runWorld(b.worlds[0].opt, sp, b.ref.sim)
	sp.end(root)
	if err != nil {
		return err
	}
	if err := run.check(); err != nil {
		return err
	}
	if run.digest != b.ref.digest {
		return fmt.Errorf("the tracer is not inert: digest %016x, untraced %016x", uint64(run.digest), uint64(b.ref.digest))
	}
	m["study.newworld_ms"] = sp.totalMs("study.NewWorld")
	m["figures.build_all_ms"] = sp.totalMs("figures.build")
	m["figures.render_ms"] = sp.totalMs("figures.render")

	var perEvent []float64
	for _, w := range run.windows {
		if w.fired > 0 {
			perEvent = append(perEvent, float64(w.hostNs)/float64(w.fired))
		}
		m["simclock.pending_max"] = max(m["simclock.pending_max"], float64(w.pending))
		m["server.peak_sessions"] = max(m["server.peak_sessions"], float64(w.active))
	}
	m["simclock.window_ns_per_event_p50"] = quantile(perEvent, 0.5)
	m["simclock.window_ns_per_event_p90"] = quantile(perEvent, 0.9)

	// The aggregates: timed inside the sink when streamed; on the retained
	// path one aggregate pass over the records, outside the rep.
	agg, observeNs := run.agg, run.observeNs
	if agg == nil {
		t0 := time.Now()
		agg = figures.Aggregate(run.recs)
		observeNs = int64(time.Since(t0))
	}
	m["figures.observe_ns_per_record"] = float64(observeNs) / float64(run.records)
	m["figures.paper_err"] = paperErr(agg)
	return nil
}

// paperErr is the mean relative deviation of the run's scale-free headline
// numbers from the paper's (the values eval_test.go quotes): unavailability,
// mean fps, UDP share, share below 3 fps, share at 15 fps or more, share
// with jitter within 50 ms. Clip-attempt and rated counts are left out:
// they follow from how many clips the world was sized to play.
func paperErr(a *figures.Aggregates) float64 {
	if a.Total() == 0 || a.Played() == 0 {
		return 0
	}
	got := []float64{
		float64(a.Unavailable()) / float64(a.Total()),          // fig 10
		a.FrameRate().Mean(),                                   // fig 11
		float64(a.ProtocolPlayed("UDP")) / float64(a.Played()), // fig 16
	}
	want := []float64{0.10, 10, 0.56}
	if c, err := a.FrameRate().CDF(); err == nil {
		got = append(got, c.FractionBelow(3), c.FractionAtLeast(15))
		want = append(want, 0.25, 0.25)
	}
	if c, err := a.Jitter().CDF(); err == nil {
		got = append(got, c.At(50))
		want = append(want, 0.52)
	}
	var sum float64
	for i := range got {
		sum += math.Abs(got[i]-want[i]) / want[i]
	}
	return sum / float64(len(got))
}

// fabricArms runs the sharded world's two comparison arms — the same
// world on one shard, and on the classic engine — armRuns times each,
// alternating, and records the first multi-core figures.
func (b *bench) fabricArms(m map[string]float64, shardedWall float64) error {
	one, classic := b.worlds[0].opt, b.worlds[0].opt
	one.Shards, classic.Shards = 1, 0
	var oneWalls, classicWalls []float64
	equiv := 1.0
	for i := 0; i < armRuns; i++ {
		t0 := time.Now()
		r, err := b.wl.runWorld(one, nil, 0)
		if err != nil {
			return err
		}
		oneWalls = append(oneWalls, time.Since(t0).Seconds())
		if r.digest != b.ref.digest {
			equiv = 0
		}
		t0 = time.Now()
		if _, err := b.wl.runWorld(classic, nil, 0); err != nil {
			return err
		}
		classicWalls = append(classicWalls, time.Since(t0).Seconds())
	}
	m["fabric.shards1_wall_s"] = median(oneWalls)
	m["fabric.classic_wall_s"] = median(classicWalls)
	m["fabric.equiv_ok"] = equiv
	if shardedWall > 0 {
		m["fabric.scaling"] = median(oneWalls) / shardedWall
		m["fabric.vs_classic"] = median(classicWalls) / shardedWall
	}
	if equiv == 0 {
		return fmt.Errorf("Shards:1 digest differs from Shards:%d", b.worlds[0].opt.Shards)
	}
	return nil
}

// tracedForks re-drives the warm-fork campaign serially from its public
// pieces so checkpoint, resume and suffix each get a span.
func (b *bench) tracedForks(sp *spans, m map[string]float64) error {
	w0 := b.worlds[0]
	root := sp.begin("rep")
	defer sp.end(root)

	id := sp.begin("study.NewWorld")
	w, err := study.NewWorld(w0.opt)
	sp.end(id)
	if err != nil {
		return err
	}
	id = sp.begin("world.prefix")
	err = w.RunUntil(w0.warmup)
	sp.end(id)
	if err != nil {
		return err
	}
	var snap bytes.Buffer
	id = sp.begin("snap.checkpoint")
	err = w.Checkpoint(&snap)
	ckpt := sp.end(id)
	if err != nil {
		return err
	}

	forks := forkNames(b.wl.forks)
	results := make([]campaign.ScenarioResult, len(forks))
	for i := range forks {
		id = sp.begin("snap.resume")
		fw, err := study.Resume(bytes.NewReader(snap.Bytes()), &forks[i])
		sp.end(id)
		if err != nil {
			return err
		}
		id = sp.begin("world.suffix")
		res, err := fw.Run()
		sp.end(id)
		if err != nil {
			return err
		}
		results[i] = campaign.ScenarioResult{Scenario: campaign.Scenario{Name: forks[i].Name}, Result: res}
	}
	r, err := foldForks(results, w0.opt.Arrivals)
	if err != nil {
		return err
	}
	if r.digest != b.ref.digest {
		return fmt.Errorf("the serial re-drive is not the campaign: digest %016x, campaign %016x", uint64(r.digest), uint64(b.ref.digest))
	}

	// A nil-fork resume must finish byte-identical to never having stopped.
	equiv := 0.0
	ew, err := study.Resume(bytes.NewReader(snap.Bytes()), nil)
	if err != nil {
		return err
	}
	eres, err := ew.Run()
	if err != nil {
		return err
	}
	d := newDigest()
	d.records(eres.Records)
	if d == w0.coldDigest {
		equiv = 1
	}

	mb := float64(snap.Len()) / 1e6
	resume := median(sp.durations("snap.resume")) / 1e9
	m["study.newworld_ms"] = sp.totalMs("study.NewWorld")
	m["snap.bytes"] = float64(snap.Len())
	m["snap.checkpoint_ms"] = ckpt.Seconds() * 1e3
	m["snap.checkpoint_mb_per_s"] = mb / ckpt.Seconds()
	m["snap.resume_ms"] = resume * 1e3
	m["snap.resume_mb_per_s"] = mb / resume
	m["snap.resume_equiv_ok"] = equiv
	if equiv == 0 {
		return fmt.Errorf("nil-fork resume digest differs from the straight-through run")
	}
	return nil
}

// campaignStats folds the untraced reps' WarmForkResults.
func (b *bench) campaignStats(m map[string]float64) {
	var prefix, forkP50, eff []float64
	for _, st := range b.forkStats[1:] { // [0] is the warm rep
		prefix = append(prefix, st.prefix.Seconds())
		forkP50 = append(forkP50, median(st.forks))
		var sum float64
		for _, f := range st.forks {
			sum += f
		}
		if phase := (st.elapsed - st.prefix).Seconds(); phase > 0 {
			eff = append(eff, sum/(forkWorkers*phase))
		}
	}
	m["campaign.prefix_s"] = median(prefix)
	m["campaign.fork_s_p50"] = median(forkP50)
	m["campaign.worker_efficiency"] = median(eff)
}

// coldArm runs the same number of scenarios cold — every one pays the full
// horizon — on the same worker pool, for the amortization ratio.
func (b *bench) coldArm(m map[string]float64, warmWall float64) error {
	scs := make([]campaign.Scenario, b.wl.forks)
	for i := range scs {
		scs[i] = campaign.Scenario{Name: fmt.Sprintf("cold-%02d", i), Options: b.worlds[0].opt}
	}
	t0 := time.Now()
	sum := campaign.Run(scs, campaign.Config{Workers: forkWorkers})
	cold := time.Since(t0).Seconds()
	if err := sum.Err(); err != nil {
		return err
	}
	if warmWall > 0 {
		m["campaign.amortization"] = cold / warmWall
	}
	return nil
}

func (b *bench) newReport(seconds int, traced bool) *report {
	return &report{
		Schema:        reportSchema,
		Workload:      b.wl.Name,
		Seed:          b.seed,
		Seconds:       seconds,
		Traced:        traced,
		Go:            runtime.Version(),
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Records:       b.ref.records,
		RecordsDigest: fmt.Sprintf("%016x", uint64(b.ref.digest)),
		EndToEnd:      map[string]e2eValue{},
		PerLayer:      map[string]layerValue{},
		Note:          "wall_s and records_per_s are the fast quartile of the kept reps (host interference is one-sided), the other metrics medians; wall_s, records_per_s and setup_s are expressed on the reference host (raw statistic x or / host_factor; raw values and raw reps are beside them); with this few reps no tail percentile has ten samples beyond it, so none is reported",
	}
}
