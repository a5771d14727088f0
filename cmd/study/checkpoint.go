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

// world builds the run's world: fresh from the options, or — with -resume
// — replayed from a snapshot file under the options it was checkpointed
// with.
func (o *options) world() (*study.World, error) {
	if o.resume == "" {
		return study.NewWorld(study.Options{Seed: o.seed, MaxUsers: o.users, ClipCap: o.clips,
			Dynamics: o.dynamics, DynamicsIntensity: o.intensity,
			Workload: o.workload, WorkloadIntensity: o.load,
			Arrivals: o.arrivals, Selection: o.selection, Shards: o.shards})
	}
	f, err := os.Open(o.resume)
	if err != nil {
		return nil, fmt.Errorf("study: %w", err)
	}
	defer f.Close()
	w, err := study.Resume(f, nil)
	if err != nil {
		return nil, fmt.Errorf("study: resume %s: %w", o.resume, err)
	}
	return w, nil
}
