package study

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// forkGoldens are two worlds cut at 10 minutes, each with the digests of the
// records it finishes with when its snapshot is resumed by each of
// goldenForks, in order.
var forkGoldens = []struct {
	name    string
	opt     Options
	digests [2]string
}{
	{"calm", Options{Seed: 23, MaxUsers: 8, ClipCap: 2, Workload: "poisson", Arrivals: 32},
		[2]string{"337bc34ae1d809dc", "25ebd56a422cf63c"}},
	{"lossburst", Options{Seed: 23, MaxUsers: 8, ClipCap: 2, Workload: "poisson", Arrivals: 32, Dynamics: "lossburst"},
		[2]string{"ed6456be9e72736f", "015c19a1cd56cf6c"}},
}

// goldenForks are the resumes forkGoldens pins, in order.
var goldenForks = [2]struct {
	name string
	fork *Fork
}{
	{"exact", nil},
	{"name only", &Fork{Name: "golden"}},
}

// TestForkRecordsGolden pins what forks of a warm snapshot produce, not only
// that they are deterministic: a named fork restarts the network's base
// stream, and its dynamics stream, at seeds fixed by the fork's name and the
// world's options. The digests were recorded while every named fork still
// replayed the network's streams before reseeding them, so a walk that
// restarts a stream anywhere else fails here, by world and fork.
func TestForkRecordsGolden(t *testing.T) {
	for _, g := range forkGoldens {
		snap := checkpointAt(t, g.opt, 10*time.Minute)
		for i, f := range goldenForks {
			res := resumeAndRun(t, snap, f.fork)
			if got := fmt.Sprintf("%x", sha256.Sum256(recordsBytes(t, res.Records)))[:16]; got != g.digests[i] {
				t.Errorf("%s world resumed %s: records digest %s, want %s", g.name, f.name, got, g.digests[i])
			}
		}
	}
}

// forkResumeAllocBudget bounds what one named-fork Resume of the warm-fork
// benchmark's world allocates. Until forks stopped replaying the network's
// streams, records travelled as JSON and every server rendered every clip's
// DESCRIBE body while NewWorld built it, a resume cost 17,555 objects; 11,396
// until a resume built bundles only for the templates holding one, not for
// every template ever visited; 9,059 until decoding interned every string, the
// clock and the network carved events and packets in chunks and NewWorld
// stopped allocating per clip, per user and per port; ~5,280 until the
// playout buffer's entries halved and the players and servers of a shard
// shared one packet arena; ~5,250 since, under -race too: a restored conn
// reads its header into locals instead of a scratch conn, and pays for its
// port and the handler bound to it, the one a live conn would have found on
// its stack's free-list. The budget sits ~1.14x above, the headroom it had
// over 11,396.
const forkResumeAllocBudget = 5_980

// TestForkResumeAllocBudget resumes a named fork of cmd/bench's warmfork16
// world (seed 1, world 0) from its warm-up cut, where 333 records ride in the
// snapshot, and bounds the allocations.
func TestForkResumeAllocBudget(t *testing.T) {
	opt := Options{Seed: 1008, WorkloadSeed: 1013, MaxUsers: 64, ClipCap: 2, Workload: "poisson", Arrivals: 256}
	snap := checkpoint(t, worldAt(t, opt, 19*time.Minute+52290*time.Millisecond))
	fork := &Fork{Name: "fork-01"}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Resume(bytes.NewReader(snap), fork); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("a named-fork resume of a %d-byte snapshot allocates %.0f objects (budget %d)", len(snap), allocs, forkResumeAllocBudget)
	if allocs > forkResumeAllocBudget {
		t.Errorf("a named-fork resume allocates %.0f objects, budget %d: a fork replays, parses or renders again", allocs, forkResumeAllocBudget)
	}
}

// Bounds on what NewWorld allocates for the warm-fork benchmark's world, the
// build every fork's resume repeats. While every clip's ladder rungs, every
// clip, user and name were allocated one by one and a server's dense port
// table grew through every doubling from one slot, it cost 2,016 objects and
// 2.79 MB; now ~635 objects and 1.51 MB, under -race too. The budgets sit
// ~1.15x above.
const (
	newWorldAllocBudget = 730
	newWorldBytesBudget = 1_750_000
)

// TestNewWorldAllocBudget builds cmd/bench's warmfork16 world (seed 1, world
// 0) and bounds its objects and bytes.
func TestNewWorldAllocBudget(t *testing.T) {
	opt := Options{Seed: 1008, WorkloadSeed: 1013, MaxUsers: 64, ClipCap: 2, Workload: "poisson", Arrivals: 256}
	build := func() {
		if _, err := NewWorld(opt); err != nil {
			t.Fatal(err)
		}
	}
	build()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	build()
	runtime.ReadMemStats(&after)
	objects, size := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("NewWorld allocates %d objects (budget %d) and %d bytes (budget %d)", objects, newWorldAllocBudget, size, newWorldBytesBudget)
	if objects > newWorldAllocBudget {
		t.Errorf("NewWorld allocates %d objects, budget %d: a library, population or playlist allocates per clip or per user again", objects, newWorldAllocBudget)
	}
	if size > newWorldBytesBudget {
		t.Errorf("NewWorld allocates %d bytes, budget %d: a dense port table grows a slot at a time again", size, newWorldBytesBudget)
	}
}
