package study

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"realtracer/internal/geo"
)

func TestWorldConstruction(t *testing.T) {
	w, err := NewWorld(Options{Seed: 1, MaxUsers: 4, ClipCap: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Playlist) != geo.PlaylistSize {
		t.Fatalf("playlist has %d entries, want %d", len(w.Playlist), geo.PlaylistSize)
	}
	if len(w.Users) != 4 {
		t.Fatalf("users=%d, want 4", len(w.Users))
	}
	if w.Clock.Now() != 0 {
		t.Fatalf("world consumed virtual time before Run: %v", w.Clock.Now())
	}
	if w.Clock.Pending() == 0 {
		t.Fatal("no users scheduled on the clock")
	}
}

func TestWorldSingleUse(t *testing.T) {
	w, err := NewWorld(Options{Seed: 2, MaxUsers: 2, ClipCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(); err == nil {
		t.Fatal("second Run on the same world should fail")
	}
}

// TestWorldMatchesRun pins the compatibility contract: study.Run is a thin
// wrapper over NewWorld + Run, so both paths must produce the same study.
func TestWorldMatchesRun(t *testing.T) {
	opt := Options{Seed: 13, MaxUsers: 3, ClipCap: 3}
	w, err := NewWorld(opt)
	if err != nil {
		t.Fatal(err)
	}
	a, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Records) != len(b.Records) || a.Events != b.Events {
		t.Fatalf("world path (%d records, %d events) differs from Run path (%d records, %d events)",
			len(a.Records), a.Events, len(b.Records), b.Events)
	}
	for i := range a.Records {
		if a.Records[i].MeasuredFPS != b.Records[i].MeasuredFPS ||
			a.Records[i].JitterMs != b.Records[i].JitterMs {
			t.Fatalf("record %d differs between world and Run paths", i)
		}
	}
}

// TestRunReportsAStall drives the run loop's one exit on both engines: a
// world whose work can never finish — every cell's arrival timer cancelled
// with the whole budget pending, a panel user whose start never fires —
// runs its engine dry and must come back with the stall error, not hang and
// not report a finished study.
func TestRunReportsAStall(t *testing.T) {
	open := func(shards int) Options {
		return Options{Seed: 17, MaxUsers: 24, ClipCap: 1, Workload: "poisson", Arrivals: 30, Shards: shards}
	}
	cancelArrivals := func(w *World) {
		for _, c := range w.open.cells {
			c.arrivalTimer.Cancel()
		}
	}
	// The same message from both engines: the whole budget, summed over one
	// cell or over the shards' several.
	const stalled = "stalled with 30 arrivals pending, 0 sessions active"
	cases := []struct {
		name  string
		opt   Options
		stall func(*World)
		want  string
	}{
		{"classic", open(0), cancelArrivals, stalled},
		{"shards=2", open(2), cancelArrivals, stalled},
		{"panel", Options{Seed: 2, MaxUsers: 3, ClipCap: 1}, func(w *World) { w.panel[1].start.Cancel() }, "1 users never finished"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, err := NewWorld(tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			tc.stall(w)
			done := make(chan error, 1)
			go func() {
				res, err := w.Run()
				if res != nil {
					err = fmt.Errorf("a result with %d records and error %v", len(res.Records), err)
				}
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("Run returned %v, want an error containing %q", err, tc.want)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("Run hangs on a world that cannot finish")
			}
		})
	}
}
