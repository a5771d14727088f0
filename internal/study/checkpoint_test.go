package study

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
	"time"

	"realtracer/internal/trace"
)

func recordsBytes(t *testing.T, recs []*trace.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteJSON(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkpointAt drives a fresh world for opt to the cut instant and
// snapshots it.
func checkpointAt(t testing.TB, opt Options, cut time.Duration) []byte {
	t.Helper()
	w, err := NewWorld(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RunUntil(cut); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := w.Checkpoint(&snap); err != nil {
		t.Fatalf("checkpoint at %v: %v", cut, err)
	}
	return snap.Bytes()
}

func resumeAndRun(t *testing.T, snap []byte, fork *Fork) *Result {
	t.Helper()
	w, err := Resume(bytes.NewReader(snap), fork)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	res, err := w.Run()
	if err != nil {
		t.Fatalf("run after resume: %v", err)
	}
	return res
}

// checkpointResumeArm is one arm of the determinism fence: checkpoint a
// run of opt at several mid-run instants, resume each snapshot, and
// require the completed record stream byte-identical to the
// straight-through run of the same seed.
func checkpointResumeArm(t *testing.T, opt Options) {
	straight, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(straight.Records) == 0 {
		t.Fatal("straight-through run produced no records")
	}
	want := recordsBytes(t, straight.Records)
	for _, frac := range []float64{0.25, 0.55, 0.85} {
		frac := frac
		t.Run(fmt.Sprintf("cut%02.0f", frac*100), func(t *testing.T) {
			cut := time.Duration(float64(straight.SimDuration) * frac)
			snap := checkpointAt(t, opt, cut)
			res := resumeAndRun(t, snap, nil)
			got := recordsBytes(t, res.Records)
			if !bytes.Equal(got, want) {
				t.Fatalf("records after resume from %v differ from straight-through run (%d vs %d records)",
					cut, len(res.Records), len(straight.Records))
			}
		})
	}
}

// fenceWorlds are the four world shapes the checkpoint fences run over.
// snapSHA pins the snapshot each writes at its 55% cut — see
// TestSnapshotBytesStable.
var fenceWorlds = []struct {
	name    string
	opt     Options
	snapSHA string
}{
	{"panel", Options{Seed: 11, MaxUsers: 6, ClipCap: 2},
		"ae48ff744a9a55b964d98065b8858f455f98f75e74a5a71719ab21d90c867fde"},
	// The open-loop churn arm: arrivals, departures and balks mid-flight,
	// plus a stateful selection policy rotating through the mirrors.
	{"openloop", Options{
		Seed: 17, MaxUsers: 8, ClipCap: 2,
		Workload: "poisson", Arrivals: 24, WorkloadIntensity: 2,
		Selection: "roundrobin",
	}, "e0d3d80813b3b2174293dd494e7a58bc58ecdab405caca4f0aa87f9ac074ad1a"},
	{"dynamics", Options{
		Seed: 5, MaxUsers: 4, ClipCap: 2,
		Dynamics: "lossburst", DynamicsIntensity: 2,
	}, "ac6d9e1ec7d61bbf212a2d62cece71e0aaf3c69c61dd854afc9bb6e1c23584ba"},
	// Heavy churn over a small pool: sessions tear down with segments
	// still mid-flight, so cuts land on wire copies whose owning conn is
	// closed (or gone from the snapshot entirely) — those serialize by
	// value, not by reference.
	{"churnheavy", Options{
		Seed: 17, MaxUsers: 6, ClipCap: 2,
		Workload: "poisson", Arrivals: 64, WorkloadIntensity: 2,
	}, "5b9b61e09b84e4d2679550cbed8dd712abdb9dae05ff449d535b9d75f41a5825"},
}

func TestCheckpointResumeByteIdentical(t *testing.T) {
	for _, fw := range fenceWorlds {
		t.Run(fw.name, func(t *testing.T) { checkpointResumeArm(t, fw.opt) })
	}
}

// fenceSnapshot is the snapshot a fence world writes at its 55% cut.
func fenceSnapshot(t testing.TB, opt Options) []byte {
	t.Helper()
	straight, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	return checkpointAt(t, opt, time.Duration(float64(straight.SimDuration)*0.55))
}

// TestSnapshotBytesStable pins the wire format: each fence world's 55%
// snapshot must hash to the digest recorded when the format was last
// changed on purpose (RTSNAP1: taken from the paired Persist/Restore codecs
// the Sync walks replaced). A refactor of the walks must leave these alone;
// a deliberate format change bumps snapMagic and updates them here.
func TestSnapshotBytesStable(t *testing.T) {
	for _, fw := range fenceWorlds {
		t.Run(fw.name, func(t *testing.T) {
			if got := fmt.Sprintf("%x", sha256.Sum256(fenceSnapshot(t, fw.opt))); got != fw.snapSHA {
				t.Fatalf("snapshot digest %s, want %s: the snapshot format changed", got, fw.snapSHA)
			}
		})
	}
}

// TestForkDeterministicAndDivergent pins the fork contract: the same named
// fork of one snapshot reproduces itself byte-for-byte, and differently
// named forks diverge from each other.
func TestForkDeterministicAndDivergent(t *testing.T) {
	opt := Options{
		Seed: 17, MaxUsers: 8, ClipCap: 2,
		Workload: "poisson", Arrivals: 20, WorkloadIntensity: 2,
	}
	straight, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	snap := checkpointAt(t, opt, straight.SimDuration/2)

	a1 := recordsBytes(t, resumeAndRun(t, snap, &Fork{Name: "a"}).Records)
	a2 := recordsBytes(t, resumeAndRun(t, snap, &Fork{Name: "a"}).Records)
	b := recordsBytes(t, resumeAndRun(t, snap, &Fork{Name: "b"}).Records)
	if !bytes.Equal(a1, a2) {
		t.Fatal("the same named fork is not deterministic")
	}
	if bytes.Equal(a1, b) {
		t.Fatal("differently named forks did not diverge")
	}
}

// TestForkScenarioDeltas forks one warm snapshot into divergent scenarios
// (changed dynamics, changed intensity) and requires each to complete.
func TestForkScenarioDeltas(t *testing.T) {
	opt := Options{
		Seed: 9, MaxUsers: 6, ClipCap: 2,
		Workload: "poisson", Arrivals: 16,
	}
	straight, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	snap := checkpointAt(t, opt, straight.SimDuration/2)

	dyn := "lossburst"
	k := 2.0
	for _, fork := range []*Fork{
		{Name: "weather", Dynamics: &dyn, DynamicsIntensity: &k},
		{Name: "hot", WorkloadIntensity: &k},
	} {
		res := resumeAndRun(t, snap, fork)
		if len(res.Records) == 0 {
			t.Fatalf("fork %s produced no records", fork.Name)
		}
	}
}

// TestResumeRejectsCorruptSnapshot pins the loud-failure contract for a
// snapshot whose options section was tampered with (a stand-in for a
// mismatched build).
func TestResumeRejectsCorruptSnapshot(t *testing.T) {
	opt := Options{Seed: 11, MaxUsers: 3, ClipCap: 1}
	straight, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	snap := checkpointAt(t, opt, straight.SimDuration/2)

	bad := append([]byte(nil), snap...)
	bad[len(snapMagic)+8] ^= 0xff // inside the options block
	if _, err := Resume(bytes.NewReader(bad), nil); err == nil || !strings.Contains(err.Error(), "hash mismatch") {
		t.Fatalf("want options hash mismatch error, got %v", err)
	}

	if _, err := Resume(bytes.NewReader([]byte("not a snapshot")), nil); err == nil {
		t.Fatal("want error resuming junk bytes")
	}

	// The three single-field corruptions that used to hang or panic Resume,
	// as fixed inputs. Each locates its field from the section tag before it.
	field := func(tag string, skip int) int {
		t.Helper()
		marker := append([]byte{byte(len(tag)), 0, 0, 0}, tag...)
		i := bytes.Index(snap, marker)
		if i < 0 {
			t.Fatalf("snapshot has no %q section", tag)
		}
		return i + len(marker) + skip
	}
	for _, tc := range []struct {
		name   string
		mutate func(b []byte)
		want   string
	}{
		// netsim: seed(8) then the base stream's draw count; 2^55 draws used
		// to spin in detrand.Skip for years.
		{"rng draw count 2^55", func(b []byte) { b[field("netsim", 8)+6] = 0x80 }, "draw count"},
		// clock: now(8) then seq; a clock seq of zero puts every armed
		// timer's seq at or above it, which used to panic in Clock.Arm.
		{"timer seq not below clock seq", func(b []byte) { clear(b[field("clock", 8):][:8]) }, "outside the restored clock"},
		// tcp: the conn's local address follows its tag; an address on a
		// host the world never attached used to panic in Network.Register.
		{"conn on an unknown host", func(b []byte) { b[field("tcp", 4)] ^= 0x20 }, "not attached"},
	} {
		bad := append([]byte(nil), snap...)
		tc.mutate(bad)
		done := make(chan error, 1)
		go func() {
			_, err := Resume(bytes.NewReader(bad), nil)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: want an error mentioning %q, got %v", tc.name, tc.want, err)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("%s: Resume hung", tc.name)
		}
	}
}

// TestCheckpointRejectsUnsupportedWorlds pins the two hard preconditions:
// a streaming sink has already let records go, and a sharded world's state
// is spread across goroutines.
func TestCheckpointRejectsUnsupportedWorlds(t *testing.T) {
	w, err := NewWorld(Options{Seed: 1, MaxUsers: 2, ClipCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	w.SetSink(trace.SinkFunc(func(*trace.Record) {}))
	if err := w.Checkpoint(&bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "collector") {
		t.Fatalf("want collector-sink error, got %v", err)
	}

	sw, err := NewWorld(Options{Seed: 1, MaxUsers: 8, ClipCap: 1, Workload: "poisson", Arrivals: 8, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Checkpoint(&bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "sharded") {
		t.Fatalf("want sharded-world error, got %v", err)
	}
}
