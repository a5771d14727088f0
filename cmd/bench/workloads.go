package main

import (
	"fmt"
	"io"
	"time"

	"realtracer/internal/campaign"
	"realtracer/internal/core"
	"realtracer/internal/figures"
	"realtracer/internal/study"
	"realtracer/internal/trace"
)

// A workload is one canonical world, built and driven through the entry
// points users call (study.NewWorld / World.Run, core.AllFigures,
// campaign.RunWarmForks). Sizes are constants: the seed is the only
// argument, and it reaches the engine only as study.Options seeds. All
// load comes from this one process; no workload keeps more goroutines busy
// than the box has cores.
//
// Why each one exists is recorded in Why (and at length in README.md):
// together they stress different layers, and for every fast path in the
// engine one workload exercises it and another bypasses it.
type workload struct {
	Name string
	Why  string
	// options builds the world's configuration for a seed; toy shrinks it
	// to the few-session scale the tests run.
	options func(seed int64, toy bool) study.Options
	// retain selects the retained-records path followed by the 24 figure
	// builders and a render (cmd/study's default); otherwise records stream
	// into figures.Aggregates and are not kept.
	retain bool
	// forks > 0 makes the world the base of a warm-started campaign:
	// campaign.RunWarmForks with that many name-only forks.
	forks int
}

var workloads = []workload{
	{
		Name: "panel63",
		Why:  "the paper's closed-loop panel (all 63 users, 10 clips each), records retained, then 24 figures built and rendered: long sessions, no host churn",
		options: func(seed int64, toy bool) study.Options {
			if toy {
				return study.Options{Seed: seed, MaxUsers: 8, ClipCap: 2}
			}
			return study.Options{Seed: seed, ClipCap: 10}
		},
		retain: true,
	},
	{
		Name: "poisson1k",
		Why:  "open loop on a calm network, 1000 Poisson arrivals over 200 templates streamed into aggregates: wheel, no-weather hop and host churn do the work",
		options: func(seed int64, toy bool) study.Options {
			o := study.Options{Seed: seed, MaxUsers: 200, ClipCap: 2, Workload: "poisson", Arrivals: 1000}
			return shrink(o, toy)
		},
	},
	{
		Name: "storm2x",
		Why:  "the same layers used differently: 2x arrivals under 2x lossburst weather, so Gilbert-Elliott draws, NACK/FEC recovery and mid-stream teardown run per packet",
		options: func(seed int64, toy bool) study.Options {
			o := study.Options{Seed: seed, MaxUsers: 200, ClipCap: 2, Workload: "poisson", Arrivals: 600,
				WorkloadIntensity: 2, Dynamics: "lossburst", DynamicsIntensity: 2}
			return shrink(o, toy)
		},
	},
	{
		Name: "sharded2",
		Why:  "one open-loop world split over 2 shards (= cores here): windows, barriers, transit copies and two-stage delivery; the traced run adds the 1-shard and classic arms",
		options: func(seed int64, toy bool) study.Options {
			o := study.Options{Seed: seed, MaxUsers: 256, ClipCap: 2, Workload: "poisson", Arrivals: 250, Shards: 2}
			return shrink(o, toy)
		},
	},
	{
		Name: "warmfork16",
		Why:  "writes beside reads: one checkpoint once 90% of the world's events have fired, then 16 forks resumed from it on 2 workers; snapshot codecs, world builds and the campaign pool",
		options: func(seed int64, toy bool) study.Options {
			// WorkloadSeed is explicit because RunWarmForks would otherwise
			// derive one that ignores Seed, and the cold calibration run
			// (which derives Seed+5) would then be a different world.
			o := study.Options{Seed: seed + 8, WorkloadSeed: seed + 13, MaxUsers: 64, ClipCap: 2, Workload: "poisson", Arrivals: 256}
			return shrink(o, toy)
		},
		retain: true,
		forks:  16,
	},
}

// shrink cuts an open-loop world to the 8-template / 16-arrival scale the
// tests run in well under a second.
func shrink(o study.Options, toy bool) study.Options {
	if toy {
		o.MaxUsers, o.Arrivals = 8, 16
	}
	return o
}

func workloadByName(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// repResult is what one rep produced: the record stream's size and digest
// plus the exact engine counters the harness can read from outside.
type repResult struct {
	records int
	digest  digest
	events  uint64
	sim     time.Duration
	// Open-loop accounting (zero for the panel).
	sessions, balked, departed int
	// netsim and server counters; classic single-world runs only (a sharded
	// world exposes only shard 0's network view, warm forks none at all).
	sent, delivered, dropped uint64
	played, torndown         uint64
}

// check applies the correctness rules every rep must meet on its own.
func (r *repResult) check() error {
	if r.records == 0 {
		return fmt.Errorf("rep produced 0 records")
	}
	if r.sent < r.delivered+r.dropped {
		return fmt.Errorf("packet conservation broken: sent %d < delivered %d + dropped %d", r.sent, r.delivered, r.dropped)
	}
	return nil
}

// digestSink hashes every record as it streams past, then hands it on. In
// a traced rep it also charges the downstream sink's host time.
type digestSink struct {
	d      digest
	n      int
	next   trace.Sink
	timed  bool
	nextNs int64
}

func (s *digestSink) Observe(r *trace.Record) {
	s.d.record(r)
	s.n++
	if s.timed {
		t0 := time.Now()
		s.next.Observe(r)
		s.nextNs += int64(time.Since(t0))
		return
	}
	s.next.Observe(r)
}

// worldRun is one single-world rep with the handles the traced run reads
// its per-layer numbers from.
type worldRun struct {
	repResult
	agg       *figures.Aggregates // the streamed sink (nil on the retained path)
	recs      []*trace.Record     // the retained records (nil when streamed)
	observeNs int64               // traced: host ns inside the aggregates sink
	windows   []window            // traced, classic engine: per-60-sim-second series
}

// windowSim is the fixed simulated width of a traced window.
const windowSim = 60 * time.Second

// runWorld builds and drives one world to completion. With sp nil it is the
// timed, untraced rep; with sp set it records spans, times the sink, and —
// on the classic engine, given the world's known horizon — drives the clock
// in windowSim slices with World.RunUntil so the exported counters can be
// sampled at each boundary. The window drive fires the same events in the
// same order as a plain Run, so the digest must not change.
func (wl *workload) runWorld(opt study.Options, sp *spans, horizon time.Duration) (*worldRun, error) {
	out := &worldRun{}
	id := sp.begin("study.NewWorld")
	w, err := study.NewWorld(opt)
	sp.end(id)
	if err != nil {
		return nil, err
	}
	classic := opt.Shards == 0

	var ds *digestSink
	if !wl.retain {
		out.agg = figures.NewAggregates()
		ds = &digestSink{d: newDigest(), next: out.agg, timed: sp != nil}
		w.SetSink(ds)
	}

	id = sp.begin("world.run")
	if sp != nil && classic {
		out.windows, err = driveWindows(w, horizon)
		if err != nil {
			return nil, err
		}
	}
	res, err := w.Run()
	sp.end(id)
	if err != nil {
		return nil, err
	}

	if wl.retain {
		out.recs = res.Records
		out.digest, out.records = newDigest(), len(res.Records)
		out.digest.records(res.Records)
		id = sp.begin("figures.build")
		figs := core.AllFigures(res.Records)
		sp.end(id)
		id = sp.begin("figures.render")
		for _, f := range figs {
			f.Render(io.Discard)
		}
		sp.end(id)
	} else {
		out.digest, out.records, out.observeNs = ds.d, ds.n, ds.nextNs
	}

	out.events, out.sim = res.Events, res.SimDuration
	out.sessions, out.balked, out.departed = res.Sessions, res.Balked, res.Departed
	if classic {
		out.sent, out.delivered, out.dropped = w.Net.Stats()
		for _, s := range w.Servers {
			_, _, played, torndown := s.Counters()
			out.played += played
			out.torndown += torndown
		}
	}
	if opt.OpenLoop() && res.Sessions+res.Balked != w.Options.Arrivals {
		return nil, fmt.Errorf("open-loop accounting broken: sessions %d + balked %d != arrivals %d",
			res.Sessions, res.Balked, w.Options.Arrivals)
	}
	return out, nil
}

// driveWindows advances a classic world in windowSim slices up to (but not
// past) its horizon, sampling the exported counters at each boundary.
func driveWindows(w *study.World, horizon time.Duration) ([]window, error) {
	var out []window
	lastFired := w.Clock.Fired()
	last := time.Now()
	for t := windowSim; t < horizon; t += windowSim {
		if err := w.RunUntil(t); err != nil {
			return nil, err
		}
		now := time.Now()
		fired := w.Clock.Fired()
		active := 0
		for _, s := range w.Servers {
			active += s.ActiveSessions()
		}
		out = append(out, window{
			hostNs:  int64(now.Sub(last)),
			fired:   fired - lastFired,
			pending: w.Clock.Pending(),
			active:  active,
		})
		last, lastFired = now, fired
	}
	return out, nil
}

// forkNames is the warm-fork sweep: n name-only forks, so every fork
// diverges by RNG re-derivation alone and the suffixes cost the same.
func forkNames(n int) []study.Fork {
	forks := make([]study.Fork, n)
	for i := range forks {
		forks[i] = study.Fork{Name: fmt.Sprintf("fork-%02d", i)}
	}
	return forks
}

// forkWorkers is the warm-fork campaign's pool size: the box's two cores.
const forkWorkers = 2

// foldForks digests a fork sweep's records in fork order and sums the
// forks' counters.
func foldForks(results []campaign.ScenarioResult, arrivals int) (repResult, error) {
	out := repResult{digest: newDigest()}
	for _, r := range results {
		if r.Err != nil {
			return out, fmt.Errorf("fork %s: %w", r.Scenario.Name, r.Err)
		}
		res := r.Result
		out.digest.records(res.Records)
		out.records += len(res.Records)
		out.events += res.Events
		out.sessions += res.Sessions
		out.balked += res.Balked
		out.departed += res.Departed
		if res.SimDuration > out.sim {
			out.sim = res.SimDuration
		}
		if res.Sessions+res.Balked != arrivals {
			return out, fmt.Errorf("fork %s: sessions %d + balked %d != arrivals %d",
				r.Scenario.Name, res.Sessions, res.Balked, arrivals)
		}
	}
	return out, nil
}

// runWarmForks is the warmfork16 rep: the campaign layer's own entry point.
func (wl *workload) runWarmForks(base study.Options, warmup time.Duration) (repResult, *campaign.WarmForkResult, error) {
	sum, err := campaign.RunWarmForks(base, warmup, forkNames(wl.forks), campaign.Config{Workers: forkWorkers})
	if err != nil {
		return repResult{}, nil, err
	}
	r, err := foldForks(sum.Results, base.Arrivals)
	return r, sum, err
}
