package main

import (
	"fmt"
	"os"
	"time"

	"realtracer/internal/study"
)

// Checkpoint/resume flag plumbing. -checkpoint FILE -warmup DUR runs the
// study to the warm-up instant, snapshots the warm world to FILE, then
// continues to completion — so the run both produces its normal output and
// leaves a reusable warm-start artifact. -resume FILE replays a snapshot's
// own options to completion; the record stream is byte-identical to the
// straight-through run that wrote it.

// checkpointFlagError validates the checkpoint/resume flag cluster against
// the rest of the command line, mirroring the dependent-flag rule: a flag
// that positions or overrides another is a hard error without its
// governing flag, never a silent no-op. Returns "" when the combination is
// legal.
func checkpointFlagError(set map[string]bool) string {
	if set["warmup"] && !set["checkpoint"] {
		return "-warmup positions the snapshot instant of a checkpoint run; give -checkpoint FILE"
	}
	if set["checkpoint"] && !set["warmup"] {
		return "-checkpoint needs its snapshot instant; give -warmup DUR (e.g. -warmup 10m of simulated time)"
	}
	if set["checkpoint"] && set["resume"] {
		return "-checkpoint and -resume are incompatible: one run either writes a snapshot or replays one"
	}
	if set["resume"] {
		// The snapshot carries its own Options (version-stamped by hash);
		// a world-shaping flag alongside -resume would silently disagree
		// with them.
		for _, dep := range []string{"seed", "users", "clips", "dynamics", "intensity", "workload", "load", "arrivals", "selection", "shards"} {
			if set[dep] {
				return fmt.Sprintf("-%s would override the snapshot's own options; -resume replays them exactly (fork via the campaign API instead)", dep)
			}
		}
		for _, mode := range []string{"sweep", "timeline"} {
			if set[mode] {
				return fmt.Sprintf("-resume is incompatible with -%s: a snapshot replays one full study world", mode)
			}
		}
	}
	if set["checkpoint"] {
		if set["shards"] {
			return "-checkpoint cannot snapshot a sharded world; drop -shards"
		}
		for _, mode := range []string{"sweep", "timeline"} {
			if set[mode] {
				return fmt.Sprintf("-checkpoint is incompatible with -%s: a snapshot captures one full study world", mode)
			}
		}
	}
	return ""
}

// writeCheckpoint drives w to the warm-up instant and writes its snapshot
// to file; the caller then continues the same world to completion.
func writeCheckpoint(w *study.World, file string, warmup time.Duration) error {
	if warmup <= 0 {
		return fmt.Errorf("study: -warmup must be positive simulated time, got %v", warmup)
	}
	if err := w.RunUntil(warmup); err != nil {
		return err
	}
	f, err := os.Create(file)
	if err != nil {
		return fmt.Errorf("study: %w", err)
	}
	if err := closeOutput(f, w.Checkpoint(f)); err != nil {
		return fmt.Errorf("study: %w", err)
	}
	fmt.Printf("checkpoint: warm state at %v written to %s (resume with -resume %s)\n", warmup, file, file)
	return nil
}

// world builds the run's world: fresh from its options, or — with resume
// set — replayed from a snapshot file under the options it was
// checkpointed with.
func (r studyRun) world() (*study.World, error) {
	if r.resume == "" {
		return study.NewWorld(r.opts)
	}
	f, err := os.Open(r.resume)
	if err != nil {
		return nil, fmt.Errorf("study: %w", err)
	}
	defer f.Close()
	w, err := study.Resume(f, nil)
	if err != nil {
		return nil, fmt.Errorf("study: resume %s: %w", r.resume, err)
	}
	return w, nil
}
