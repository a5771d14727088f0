package study

import (
	"bytes"
	"runtime"
	"testing"
	"time"
)

// resumeHostile is the hostile-input property Resume must hold for any
// bytes: it returns a world or an error — never a panic — within bounded
// time and allocation, and a world it does return runs without panicking.
//
// A snapshot that decodes cleanly after mutation is simply a different
// world: a timer moved an hour out, a counter bumped. Such a world may run
// long or end in Run's stall error; neither is a defect. The run is
// therefore driven under an event budget well above what any seed world
// needs, and only a world that finishes inside it is handed to Run.
func resumeHostile(t *testing.T, data []byte) {
	const (
		resumeLimit = 5 * time.Second
		allocLimit  = 64 << 20
		eventBudget = 1_500_000
	)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	w, err := Resume(bytes.NewReader(data), nil)
	if took := time.Since(start); took > resumeLimit {
		t.Fatalf("Resume took %v on %d bytes", took, len(data))
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > allocLimit+64*uint64(len(data)) {
		t.Fatalf("Resume allocated %d bytes on %d bytes of input", grew, len(data))
	}
	if err != nil {
		return
	}
	for n := 0; !finished(w) && w.Clock.Step(); n++ {
		if n == eventBudget {
			return
		}
	}
	w.Run() // result or stall error; must not panic
}

// finished mirrors Run's stopping condition for a classic world: every
// panel user done, or the arrival budget spent and the last session gone.
func finished(w *World) bool {
	if w.open != nil {
		c := w.open.cells[0]
		return c.arrivalsLeft <= 0 && c.active <= 0
	}
	return w.remaining <= 0
}

// FuzzResume feeds Resume mutated snapshots. The corpus is seeded with real
// mid-run snapshots of the four fence worlds, of one world with a TCP dial in
// flight and of one with a timed-out TCP flight waiting to be sent again,
// plus truncations of each, and one doctored window.
func FuzzResume(f *testing.F) {
	snaps := [][]byte{checkpoint(f, midDialWorld(f)), checkpoint(f, midRTOWorld(f))}
	for _, fw := range fenceWorlds {
		snaps = append(snaps, fenceSnapshot(f, fw.opt))
	}
	// One seed no mutation of the others finds quickly: a well-formed
	// snapshot whose one defect is two sequence numbers a whole window apart
	// in one FEC window.
	f.Add(farApartSnapshot(f))
	for _, snap := range snaps {
		f.Add(snap)
		f.Add(snap[:len(snap)-1])
		f.Add(snap[:len(snap)/2])
		f.Add(snap[:64])
	}
	f.Fuzz(resumeHostile)
}
