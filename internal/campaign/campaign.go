// Package campaign is the parallel campaign engine: it takes a set of named
// scenarios (each a study.Options plus a label — seed replicas, ablation
// points, congestion scales), executes them across a bounded worker pool,
// and merges the per-scenario results with labels and input order
// preserved.
//
// Parallelism is embarrassingly safe because every scenario builds its own
// study.World — a private discrete-event clock and network — so no
// simulator state is shared between workers. Per-scenario seeds are derived
// deterministically from the scenario name, which makes a campaign's
// records identical whether it runs on one worker or on every core.
package campaign

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"time"

	"realtracer/internal/study"
	"realtracer/internal/trace"
)

// Scenario is one named study configuration inside a campaign.
type Scenario struct {
	// Name labels the scenario in results and output ("seed-03",
	// "preroll-8s", "fec-off"). Names should be unique within a campaign;
	// they also drive seed derivation for scenarios with Seed == 0.
	Name string
	// Options configures the scenario's study. A zero Seed is replaced by a
	// seed derived deterministically from Config.BaseSeed and Name.
	Options study.Options
}

// Config tunes a campaign run.
type Config struct {
	// Workers bounds the worker pool (0 = runtime.NumCPU()).
	Workers int
	// BaseSeed feeds derived seeds for scenarios whose Options.Seed is 0.
	// Two campaigns with the same scenarios and BaseSeed produce identical
	// records regardless of worker count.
	BaseSeed int64
	// NewSink, when set, gives each scenario's world its own freshly-built
	// sink in place of the default collector (ScenarioResult.Result.Records
	// is then nil unless that sink is a trace.Collector; the sink is
	// returned in ScenarioResult.Sink). Per-scenario sinks make the fan-out
	// race-free without locks, and merging the partials in input order
	// afterwards is deterministic no matter how many workers ran — see
	// core.RunCampaignAggregates.
	NewSink func() trace.Sink
}

// ScenarioResult is one scenario's completed study.
type ScenarioResult struct {
	// Scenario echoes the input spec with its derived seed filled in.
	Scenario Scenario
	// Result holds the study's records; nil when Err is set.
	Result *study.Result
	// Err is the scenario's failure, if any. One failed scenario does not
	// abort the others.
	Err error
	// Sink is the scenario's record sink when Config.NewSink is set, nil
	// otherwise.
	Sink trace.Sink
	// Elapsed is the scenario's wall-clock run time.
	Elapsed time.Duration
}

// Summary is a completed campaign: one ScenarioResult per input scenario,
// in input order.
type Summary struct {
	Results []ScenarioResult
	// Workers is the pool size the campaign actually ran with.
	Workers int
	// Elapsed is the whole campaign's wall-clock time.
	Elapsed time.Duration
}

// Records flattens the per-scenario trace records in scenario order.
// Failed scenarios contribute nothing.
func (s *Summary) Records() []*trace.Record {
	var out []*trace.Record
	for _, r := range s.Results {
		if r.Result != nil {
			out = append(out, r.Result.Records...)
		}
	}
	return out
}

// Err returns the first scenario error in input order, or nil.
func (s *Summary) Err() error {
	for _, r := range s.Results {
		if r.Err != nil {
			return fmt.Errorf("campaign: scenario %s: %w", r.Scenario.Name, r.Err)
		}
	}
	return nil
}

// DeriveSeed maps (base, name) to a stable non-zero seed. The derivation is
// pure, so scheduling order cannot perturb it.
func DeriveSeed(base int64, name string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", base, name)
	seed := int64(h.Sum64() & 0x7fffffffffffffff)
	if seed == 0 {
		seed = 1
	}
	return seed
}

// Run executes the scenarios across cfg.Workers goroutines and returns the
// merged summary. Results line up with the input slice index-for-index no
// matter which worker finished first.
func Run(scenarios []Scenario, cfg Config) *Summary {
	start := time.Now()
	sum := &Summary{Results: make([]ScenarioResult, len(scenarios))}
	sum.Workers = runPool(len(scenarios), cfg.Workers, func(i int) {
		sum.Results[i] = runScenario(scenarios[i], cfg)
	})
	sum.Elapsed = time.Since(start)
	return sum
}

// runPool calls do(0..n-1) across a bounded pool of goroutines (workers <= 0
// means runtime.NumCPU(), never more than n, at least 1) and returns the
// pool size it ran with. Each index runs exactly once; do must confine its
// writes to state owned by its index.
func runPool(n, workers int, do func(i int)) int {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	workers = max(1, min(workers, n))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				do(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return workers
}

// deriveSeeds fills o's zero Seed, and the DynamicsSeed and WorkloadSeed the
// options use, from base and the run's name. Deriving them from the name (not
// from whichever worker ran it) keeps campaign records byte-identical across
// worker counts, and gives the weather and the arrivals tracks of their own,
// so a seed sweep shares one of each.
func deriveSeeds(o study.Options, base int64, name string) study.Options {
	if o.Seed == 0 {
		o.Seed = DeriveSeed(base, name)
	}
	if o.Dynamics != "" && o.DynamicsSeed == 0 {
		o.DynamicsSeed = DeriveSeed(base, name+"|dynamics")
	}
	if o.OpenLoop() && o.WorkloadSeed == 0 {
		o.WorkloadSeed = DeriveSeed(base, name+"|workload")
	}
	return o
}

// runScenario executes one scenario in its own private world, under its
// own sink, so no two workers ever share mutable aggregation state.
func runScenario(sc Scenario, cfg Config) ScenarioResult {
	sc.Options = deriveSeeds(sc.Options, cfg.BaseSeed, sc.Name)
	start := time.Now()
	out := ScenarioResult{Scenario: sc}
	w, err := study.NewWorld(sc.Options)
	if err == nil {
		if cfg.NewSink != nil {
			out.Sink = cfg.NewSink()
			w.SetSink(out.Sink)
		}
		out.Result, err = w.Run()
	}
	out.Err, out.Elapsed = err, time.Since(start)
	return out
}
