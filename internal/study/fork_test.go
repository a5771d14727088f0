package study

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
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
// shared one packet arena; ~5,250 until the build was split into a static
// world and an instantiation, tags stopped being interned and a restore
// carved its conns and their ports in chunks. Now ~4,775 on a static world of
// its own and ~4,460 on a shared one (Static.Resume, what each fork of a
// warm sweep pays: no library, population or route table, and no name the
// static world holds decoded again), under -race too. The budgets sit
// ~1.14x above, the headroom the first had over 11,396.
const (
	forkResumeAllocBudget       = 5_440
	sharedForkResumeAllocBudget = 5_090
)

// TestForkResumeAllocBudget resumes a named fork of cmd/bench's warmfork16
// world (seed 1, world 0) from its warm-up cut, where 333 records ride in the
// snapshot, and bounds the allocations: on a static world of its own (Resume)
// and on a shared one (Static.Resume).
func TestForkResumeAllocBudget(t *testing.T) {
	opt := Options{Seed: 1008, WorkloadSeed: 1013, MaxUsers: 64, ClipCap: 2, Workload: "poisson", Arrivals: 256}
	snap := checkpoint(t, worldAt(t, opt, 19*time.Minute+52290*time.Millisecond))
	st, err := NewStatic(opt)
	if err != nil {
		t.Fatal(err)
	}
	fork := &Fork{Name: "fork-01"}
	for _, arm := range []struct {
		name   string
		resume func(io.Reader, *Fork) (*World, error)
		budget int
	}{
		{"its own static world", Resume, forkResumeAllocBudget},
		{"a shared static world", st.Resume, sharedForkResumeAllocBudget},
	} {
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := arm.resume(bytes.NewReader(snap), fork); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("a named-fork resume of a %d-byte snapshot on %s allocates %.0f objects (budget %d)", len(snap), arm.name, allocs, arm.budget)
		if allocs > float64(arm.budget) {
			t.Errorf("a named-fork resume on %s allocates %.0f objects, budget %d: a fork replays, parses or renders again", arm.name, allocs, arm.budget)
		}
	}
}

// Bounds on what NewWorld allocates for the warm-fork benchmark's world, and
// on what instantiating it from a shared static world allocates, the build
// every fork's resume repeats. While every clip's ladder rungs, every clip,
// user and name were allocated one by one and a server's dense port table
// grew through every doubling from one slot, NewWorld cost 2,016 objects and
// 2.79 MB; ~635 objects and 1.51 MB while a server's port table spanned the
// empty ports between its service ports and its conns' (62 % of the bytes).
// Now NewWorld costs ~575 objects and 0.51 MB, and an instantiation ~400
// objects and 0.38 MB (the clock's ring is 256 KiB of it), under -race too.
// The budgets sit ~1.15x above.
const (
	newWorldAllocBudget = 660
	newWorldBytesBudget = 590_000
	instanceAllocBudget = 460
	instanceBytesBudget = 440_000
)

// TestNewWorldAllocBudget builds cmd/bench's warmfork16 world (seed 1, world
// 0) and bounds its objects and bytes: whole (NewWorld), and instantiated
// from a static world already built (Static.NewWorld).
func TestNewWorldAllocBudget(t *testing.T) {
	opt := Options{Seed: 1008, WorkloadSeed: 1013, MaxUsers: 64, ClipCap: 2, Workload: "poisson", Arrivals: 256}
	st, err := NewStatic(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range []struct {
		name           string
		build          func() (*World, error)
		objects, bytes uint64
	}{
		{"NewWorld", func() (*World, error) { return NewWorld(opt) }, newWorldAllocBudget, newWorldBytesBudget},
		{"Static.NewWorld", st.NewWorld, instanceAllocBudget, instanceBytesBudget},
	} {
		build := func() {
			if _, err := arm.build(); err != nil {
				t.Fatal(err)
			}
		}
		build()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		build()
		runtime.ReadMemStats(&after)
		objects, size := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		t.Logf("%s allocates %d objects (budget %d) and %d bytes (budget %d)", arm.name, objects, arm.objects, size, arm.bytes)
		if objects > arm.objects {
			t.Errorf("%s allocates %d objects, budget %d: a library, population or playlist allocates per clip or per user again, or an instantiation rebuilds what its static world holds", arm.name, objects, arm.objects)
		}
		if size > arm.bytes {
			t.Errorf("%s allocates %d bytes, budget %d: a dense port table spans empty ports or grows a slot at a time again", arm.name, size, arm.bytes)
		}
	}
}
