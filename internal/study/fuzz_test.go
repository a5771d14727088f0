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
// It holds for an exact resume and a named fork alike: a fork restarts the
// streams the exact resume replays.
//
// A snapshot that decodes cleanly after mutation is simply a different
// world: a timer moved an hour out, a counter bumped. Such a world may run
// long or end in Run's stall error; neither is a defect. The run is
// therefore driven under an event budget well above what any seed world
// needs, and only a world that finishes inside it is handed to Run.
func resumeHostile(t *testing.T, data []byte) {
	for _, fork := range []*Fork{nil, {Name: "fuzz"}} {
		resumeHostileAs(t, data, fork)
	}
}

func resumeHostileAs(t *testing.T, data []byte, fork *Fork) {
	const (
		resumeLimit = 5 * time.Second
		allocLimit  = 64 << 20
		eventBudget = 1_500_000
	)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	w, err := Resume(bytes.NewReader(data), fork)
	if took := time.Since(start); took > resumeLimit {
		t.Fatalf("Resume as %+v took %v on %d bytes", fork, took, len(data))
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > allocLimit+64*uint64(len(data)) {
		t.Fatalf("Resume as %+v allocated %d bytes on %d bytes of input", fork, grew, len(data))
	}
	if err != nil {
		return
	}
	for n := 0; !w.finished() && w.Clock.Step(); n++ {
		if n == eventBudget {
			return
		}
	}
	w.Run() // result or stall error; must not panic
}

// manyRecords is an open-loop world that has retained 195 records by 90% of
// its run, where FuzzResume cuts it.
var manyRecords = Options{Seed: 17, MaxUsers: 6, ClipCap: 2, Workload: "poisson", Arrivals: 160, WorkloadIntensity: 2}

// FuzzResume feeds Resume mutated snapshots. The corpus is seeded with real
// mid-run snapshots of the four fence worlds, of one world with a TCP dial in
// flight, of one with a timed-out TCP flight waiting to be sent again, of one
// with a SETUP request on the wire and of one carrying many records, plus
// truncations of each, one doctored window, one doctored FEC group, four
// doctored accept tables, three doctored template tables and four doctored
// panel cells.
func FuzzResume(f *testing.F) {
	straight, err := Run(manyRecords)
	if err != nil {
		f.Fatal(err)
	}
	snaps := [][]byte{
		checkpoint(f, midDialWorld(f)), checkpoint(f, midRTOWorld(f)), checkpoint(f, midSetupWorld(f)),
		checkpointAt(f, manyRecords, straight.SimDuration*9/10),
	}
	for _, fw := range fenceWorlds {
		snaps = append(snaps, fenceSnapshot(f, fw.opt))
	}
	// Seeds no mutation of the others finds quickly: well-formed snapshots
	// whose one defect is two sequence numbers a whole window apart in one FEC
	// window, an open FEC group the retransmit window cannot supply, or an
	// accept table, template table or panel cell that does not add up.
	f.Add(farApartSnapshot(f))
	f.Add(unsuppliableFECGroup(f))
	for _, d := range append(doctoredAcceptTables(f), doctoredTemplates(f)...) {
		f.Add(d.snap)
	}
	for _, snap := range snaps {
		f.Add(snap)
		f.Add(snap[:len(snap)-1])
		f.Add(snap[:len(snap)/2])
		f.Add(snap[:64])
	}
	f.Fuzz(resumeHostile)
}
