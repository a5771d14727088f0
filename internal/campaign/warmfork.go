package campaign

import (
	"bytes"
	"fmt"
	"time"

	"realtracer/internal/study"
)

// Warm-started sweeps: run one shared warm-up prefix, checkpoint it, and
// fork N divergent scenarios from the snapshot. A sweep whose scenarios
// share a long steady-state prefix pays for that prefix once instead of
// once per scenario — with an 8-fork sweep warmed 60% of the way through
// the horizon, the cold control simulates 8.0 horizons of virtual time and
// the warm path 0.6 + 8×0.4 = 3.8, a ~2.1x amortization (measured by
// BenchmarkCampaignWarmFork; README's benchmark history has the numbers).
//
// A fork is a name: every fork runs the prefix's options, and forks diverge
// only by deterministic per-fork RNG re-derivation from their names. A
// scenario that changes an option is a cold Scenario.

// WarmForkResult is a completed warm-started sweep. It is a Summary whose
// ScenarioResults carry the options every fork ran (the prefix's) and
// whose Warmup/Snapshot fields describe the shared prefix the forks were
// paid from.
type WarmForkResult struct {
	Summary
	// Base is the effective base configuration the prefix ran: the caller's
	// base with any zero Seed/DynamicsSeed/WorkloadSeed filled in by the
	// same derivation a cold Scenario gets.
	Base study.Options
	// Warmup is the virtual-time length of the shared prefix.
	Warmup time.Duration
	// WarmupElapsed is the wall-clock cost of running the prefix and
	// writing the snapshot — paid once, regardless of fork count.
	WarmupElapsed time.Duration
	// SnapshotBytes is the size of the in-memory snapshot the forks
	// resumed from.
	SnapshotBytes int
}

// RunWarmForks runs base to the warmup instant once, checkpoints the warm
// world to an in-memory snapshot, and forks every entry of forks from it
// across cfg.Workers goroutines. Results line up with forks
// index-for-index; one failed fork does not abort the others.
//
// Every fork must be named (the name drives per-fork RNG re-derivation and
// labels the result) and names should be unique — two forks with the same
// name are byte-identical replicas. A zero base.Seed is derived from
// cfg.BaseSeed exactly like a zero-seed Scenario, so a warm sweep and a
// cold Run of the same names stay comparable.
//
// With cfg.NewSink set the prefix world runs under cfg.NewSink(), the
// snapshot carries that sink's state in place of the prefix's records, and
// every fork resumes under a sink of the same kind already holding it
// (ScenarioResult.Sink); the sink must be a trace.SnapSink, or the
// checkpoint fails naming its type.
func RunWarmForks(base study.Options, warmup time.Duration, forks []study.Fork, cfg Config) (*WarmForkResult, error) {
	if len(forks) == 0 {
		return nil, fmt.Errorf("campaign: warm-fork sweep has no forks")
	}
	for i := range forks {
		if forks[i].Name == "" {
			return nil, fmt.Errorf("campaign: fork %d has no name (names drive per-fork RNG re-derivation)", i)
		}
	}
	if warmup <= 0 {
		return nil, fmt.Errorf("campaign: warm-fork warmup must be positive, got %v", warmup)
	}
	base = deriveSeeds(base, cfg.BaseSeed, "warmfork")

	// One static world for the prefix and every fork: each instantiates only
	// what its events write.
	start := time.Now()
	st, err := study.NewStatic(base)
	if err != nil {
		return nil, fmt.Errorf("campaign: warm-fork base: %w", err)
	}
	w, err := st.NewWorld()
	if err != nil {
		return nil, fmt.Errorf("campaign: warm-fork base: %w", err)
	}
	if cfg.NewSink != nil {
		w.SetSink(cfg.NewSink())
	}
	if err := w.RunUntil(warmup); err != nil {
		return nil, fmt.Errorf("campaign: warm-up prefix: %w", err)
	}
	var snap bytes.Buffer
	if err := w.Checkpoint(&snap); err != nil {
		return nil, fmt.Errorf("campaign: checkpoint at %v: %w", warmup, err)
	}
	warmElapsed := time.Since(start)

	out := &WarmForkResult{
		Summary:       Summary{Results: make([]ScenarioResult, len(forks))},
		Base:          base,
		Warmup:        warmup,
		WarmupElapsed: warmElapsed,
		SnapshotBytes: snap.Len(),
	}
	out.Workers = runPool(len(forks), cfg.Workers, func(i int) {
		out.Results[i] = runFork(st, snap.Bytes(), base, &forks[i], cfg.NewSink != nil)
	})
	out.Elapsed = time.Since(start)
	return out, nil
}

// runFork resumes one fork from the shared snapshot on the shared static
// world and drives it to completion in its own private world; snapshot
// bytes and the static world are read-only, so workers share them without
// copies. streamed reports the fork's restored sink in the result, as Run
// does for a scenario under Config.NewSink.
func runFork(st *study.Static, snap []byte, base study.Options, fork *study.Fork, streamed bool) ScenarioResult {
	start := time.Now()
	out := ScenarioResult{Scenario: Scenario{Name: fork.Name, Options: base}}
	w, err := st.Resume(bytes.NewReader(snap), fork)
	if err == nil {
		if streamed {
			out.Sink = w.Sink()
		}
		out.Result, err = w.Run()
	}
	out.Err, out.Elapsed = err, time.Since(start)
	return out
}
