package study

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"realtracer/internal/figures"
	"realtracer/internal/netsim"
	"realtracer/internal/rdt"
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

// worldAt drives a fresh world for opt to the cut instant.
func worldAt(t testing.TB, opt Options, cut time.Duration) *World {
	t.Helper()
	w, err := NewWorld(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RunUntil(cut); err != nil {
		t.Fatal(err)
	}
	return w
}

func checkpoint(t testing.TB, w *World) []byte {
	t.Helper()
	var snap bytes.Buffer
	if err := w.Checkpoint(&snap); err != nil {
		t.Fatalf("checkpoint at %v: %v", w.Clock.Now(), err)
	}
	return snap.Bytes()
}

// checkpointAt drives a fresh world for opt to the cut instant and
// snapshots it.
func checkpointAt(t testing.TB, opt Options, cut time.Duration) []byte {
	t.Helper()
	return checkpoint(t, worldAt(t, opt, cut))
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
		"d7095c2217abd806597243f3817ce82974af89690cfb3212af77dc891af7c590"},
	// The open-loop churn arm: arrivals, departures and balks mid-flight,
	// plus a stateful selection policy rotating through the mirrors.
	{"openloop", Options{
		Seed: 17, MaxUsers: 8, ClipCap: 2,
		Workload: "poisson", Arrivals: 24, WorkloadIntensity: 2,
		Selection: "roundrobin",
	}, "34bf0cbc790b224ab9f44ab12c99c44605a771f885d29458643124e2d96368bb"},
	{"dynamics", Options{
		Seed: 5, MaxUsers: 4, ClipCap: 2,
		Dynamics: "lossburst", DynamicsIntensity: 2,
	}, "e98463be529eef989f7cf1859141ea009e2aaf3a05a05c43e8659b4a108020f2"},
	// Heavy churn over a small pool: sessions tear down with segments
	// still mid-flight, so cuts land on wire copies whose owning conn is
	// closed (or gone from the snapshot entirely) — those serialize by
	// value, not by reference.
	{"churnheavy", churnHeavy, "63d8923db5efaacf1bd07e03da5a576c29d8bc47f58977f01f76cd490dbf5073"},
}

// churnHeavy is the heavy-churn fence world; midDialWorld cuts it too.
var churnHeavy = Options{
	Seed: 17, MaxUsers: 6, ClipCap: 2,
	Workload: "poisson", Arrivals: 64, WorkloadIntensity: 2,
}

func TestCheckpointResumeByteIdentical(t *testing.T) {
	for _, fw := range fenceWorlds {
		t.Run(fw.name, func(t *testing.T) {
			checkpointResumeArm(t, fw.opt)
			t.Run("streamed", func(t *testing.T) { streamedResumeArm(t, fw.opt) })
		})
	}
	// One cut no fraction of a run lands on: a sender gone back N.
	t.Run("midrto", func(t *testing.T) {
		straight, err := Run(fenceWorlds[2].opt)
		if err != nil {
			t.Fatal(err)
		}
		res := resumeAndRun(t, checkpoint(t, midRTOWorld(t)), nil)
		if !bytes.Equal(recordsBytes(t, res.Records), recordsBytes(t, straight.Records)) || res.Events != straight.Events {
			t.Fatalf("resumed with a timed-out flight waiting: %d records and %d events, straight through %d and %d, or the records differ",
				len(res.Records), res.Events, len(straight.Records), straight.Events)
		}
	})
}

// streamedResumeArm is checkpointResumeArm for a world that never kept a
// record: its sink is a figures.Aggregates, the snapshot carries the
// aggregates' own walk in place of the records, and the resumed world's
// restored sink must finish equal — every rendered figure, the workload and
// robustness rows — to the straight-through streamed run's.
func streamedResumeArm(t *testing.T, opt Options) {
	straight := figures.NewAggregates()
	res := runWithSink(t, opt, straight)
	if straight.Total() == 0 {
		t.Fatal("straight-through streamed run observed no records")
	}
	want := renderAggregates(straight)
	for _, frac := range []float64{0.25, 0.55, 0.85} {
		t.Run(fmt.Sprintf("cut%02.0f", frac*100), func(t *testing.T) {
			w, err := NewWorld(opt)
			if err != nil {
				t.Fatal(err)
			}
			prefix := figures.NewAggregates()
			w.SetSink(prefix)
			cut := time.Duration(float64(res.SimDuration) * frac)
			if err := w.RunUntil(cut); err != nil {
				t.Fatal(err)
			}
			rw, err := Resume(bytes.NewReader(checkpoint(t, w)), nil)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			got, ok := rw.Sink().(*figures.Aggregates)
			if !ok || got == prefix {
				t.Fatalf("resumed world's sink is %T, want a fresh *figures.Aggregates", rw.Sink())
			}
			if rres, err := rw.Run(); err != nil {
				t.Fatal(err)
			} else if rres.Records != nil || rres.Events != res.Events {
				t.Fatalf("resumed streamed run: %d records retained, %d events (straight-through %d)",
					len(rres.Records), rres.Events, res.Events)
			}
			if !bytes.Equal(renderAggregates(got), want) {
				t.Fatalf("aggregates after resume from %v (%d of %d records in the prefix) differ from the straight-through streamed run's",
					cut, prefix.Total(), straight.Total())
			}
		})
	}
}

// renderAggregates is everything a caller can read off an aggregate build:
// the 24 rendered figures plus the workload and robustness rows.
func renderAggregates(a *figures.Aggregates) []byte {
	var buf bytes.Buffer
	for _, g := range figures.All() {
		g.Agg(a).Render(&buf)
	}
	peak, at := a.PeakConcurrency()
	fmt.Fprintf(&buf, "%+v\n%+v\npeak %d at %d\n", a.Workload(), a.Robustness(), peak, at)
	return buf.Bytes()
}

// fenceWorld is a fence world driven to its 55% cut.
func fenceWorld(t testing.TB, opt Options) *World {
	t.Helper()
	straight, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	return worldAt(t, opt, time.Duration(float64(straight.SimDuration)*0.55))
}

// fenceSnapshot is the snapshot a fence world writes at its 55% cut.
func fenceSnapshot(t testing.TB, opt Options) []byte {
	t.Helper()
	return checkpoint(t, fenceWorld(t, opt))
}

// midDialWorld is the churn-heavy fence world stopped at the first whole
// second past its midpoint at which a TCP dial is in flight — the state the
// fixed 55% cuts land on only by luck.
func midDialWorld(t testing.TB) *World {
	t.Helper()
	straight, err := Run(churnHeavy)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(churnHeavy)
	if err != nil {
		t.Fatal(err)
	}
	for cut := straight.SimDuration / 2; cut < straight.SimDuration; cut += time.Second {
		if err := w.RunUntil(cut); err != nil {
			t.Fatal(err)
		}
		if dialsInFlight(w) > 0 {
			return w
		}
	}
	t.Fatal("no whole second in the second half of the churn-heavy world has a dial in flight")
	return nil
}

// midNackWorld is the lossburst fence world stepped on from its 55% cut to the
// first instant a NACK is on the wire. A NACK lives for one client-to-server
// trip, so the fixed cuts never catch one: without this world nothing
// reachable from a cut World is an rdt.Nack, and neither its Sync walk nor
// its syncExempt row is ever judged.
func midNackWorld(t testing.TB) *World {
	t.Helper()
	w := fenceWorld(t, fenceWorlds[2].opt)
	for w.Clock.Step() {
		for _, pe := range w.Clock.Pendings() {
			if pkt, ok := pe.Handler.(*netsim.Packet); ok {
				if p, ok := pkt.Payload.(*rdt.Packet); ok && p.Nack != nil {
					return w
				}
			}
		}
	}
	t.Fatalf("the %s fence world sends no NACK after its cut", fenceWorlds[2].name)
	return nil
}

// midRTOWorld is the lossburst fence world stepped from its start to the
// first instant a TCP sender has gone back N: its cursor stands below nextSeq
// and the segment under it is marked as a retransmission — a timed-out flight
// waiting, with whatever was never sent behind it, for the ACK clock. The
// state lasts one round trip and needs a flight of two or more to time out, so
// the fixed cuts do not land on it: without this world no snapshot's unsent
// run starts with a retransmission, and nothing tells a cursor that restores
// to where it was from one that restores to the end of the old flight.
func midRTOWorld(t testing.TB) *World {
	t.Helper()
	w, err := NewWorld(fenceWorlds[2].opt)
	if err != nil {
		t.Fatal(err)
	}
	for w.Clock.Step() {
		// A sender with anything in flight has its RTO armed, itself the handler.
		for _, pe := range w.Clock.Pendings() {
			c := reflect.ValueOf(pe.Handler)
			if c.Kind() != reflect.Pointer || c.Type().Elem().Name() != "simTCP" {
				continue
			}
			ring, at := peek(peek(c, "send"), "ring"), peek(c, "sndNxt").Uint()
			if at < peek(c, "nextSeq").Uint() && peek(ring.Index(int(at)&(ring.Len()-1)), "rexmit").Bool() {
				return w
			}
		}
	}
	t.Fatalf("no TCP sender of the %s fence world ever goes back N", fenceWorlds[2].name)
	return nil
}

// TestSnapshotBytesStable pins the wire format: each fence world's 55%
// snapshot must hash to the digest recorded when the format was last
// changed on purpose (RTSNAP3: a closed conn walks the backlog it froze and
// empty windows instead of the segments it used to keep, and a tracer has one
// arena, so no arena index). A refactor of the walks must leave these alone; a
// deliberate format change bumps snapMagic and updates them here.
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

// stretchFECWindow returns a copy of snap in which one player's FEC window
// claims two sequence numbers 2^16 apart, or nil when no player in snap holds
// two. The window is found by its shape — the player walks highestSeq, then
// the window as a count and that many ascending seqs, the last of which is
// highestSeq again — and its last seq is pushed a whole window above the
// first.
func stretchFECWindow(snap []byte) []byte {
	u32 := func(at int) uint32 { return binary.LittleEndian.Uint32(snap[at:]) }
next:
	for at := 0; at+16 <= len(snap); at++ {
		highest, n := u32(at), int(u32(at+4))
		if n < 2 || n > 1024 || at+8+4*n > len(snap) || u32(at+4+4*n) != highest {
			continue
		}
		for i := 1; i < n; i++ {
			if u32(at+8+4*i) <= u32(at+4+4*i) {
				continue next
			}
		}
		bad := bytes.Clone(snap)
		binary.LittleEndian.PutUint32(bad[at+4+4*n:], u32(at+8)+1<<16)
		return bad
	}
	return nil
}

// farApartSnapshot is the first fence snapshot stretchFECWindow can doctor.
func farApartSnapshot(t testing.TB) []byte {
	t.Helper()
	for _, fw := range fenceWorlds {
		if bad := stretchFECWindow(fenceSnapshot(t, fw.opt)); bad != nil {
			return bad
		}
	}
	t.Fatal("no fence snapshot holds a player with two seqs in its FEC window")
	return nil
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

	// Single-field corruptions as fixed inputs: the first three used to hang
	// or panic Resume. Each locates its field from the section tag before it.
	marker := func(tag string) []byte { return append([]byte{byte(len(tag)), 0, 0, 0}, tag...) }
	field := func(tag string, skip int) int {
		t.Helper()
		i := bytes.Index(snap, marker(tag))
		if i < 0 {
			t.Fatalf("snapshot has no %q section", tag)
		}
		return i + len(marker(tag)) + skip
	}
	// A stack with one dial in flight walks a count of 1, the dial's deaf flag
	// (clear: the host is there) and then the dialing conn under its "tcp"
	// tag, led by the local address that names the dial; the player waiting on
	// it walks (dial kind, that same address) later on.
	mid := checkpoint(t, midDialWorld(t))
	dialAt := bytes.Index(mid, append([]byte{1, 0, 0, 0, 0}, marker("tcp")...))
	if dialAt < 0 {
		t.Fatal("mid-dial snapshot has no stack with exactly one dial in flight")
	}
	addrAt := dialAt + 5 + len(marker("tcp"))
	addrEnd := addrAt + 4 + int(binary.LittleEndian.Uint32(mid[addrAt:]))
	waitAt := bytes.Index(mid[addrEnd:], mid[addrAt:addrEnd])
	if waitAt < 0 {
		t.Fatalf("no player waits on the dial from %s", mid[addrAt+4:addrEnd])
	}
	waitAt += addrEnd
	farApart := farApartSnapshot(t)
	for _, tc := range []struct {
		name   string
		snap   []byte
		mutate func(b []byte)
		want   string
	}{
		// netsim: seed(8) then the base stream's draw count; 2^55 draws used
		// to spin in detrand.Skip for years.
		{"rng draw count 2^55", snap, func(b []byte) { b[field("netsim", 8)+6] = 0x80 }, "draw count"},
		// clock: now(8) then seq; a clock seq of zero puts every armed
		// timer's seq at or above it, which used to panic in Clock.Arm.
		{"timer seq not below clock seq", snap, func(b []byte) { clear(b[field("clock", 8):][:8]) }, "outside the restored clock"},
		// tcp: the conn's local address follows its tag; an address on a
		// host the world never attached used to panic in Network.Register.
		{"conn on an unknown host", snap, func(b []byte) { b[field("tcp", 4)] ^= 0x20 }, "not attached"},
		// A window's ring is as wide as the seqs it holds: two a whole window
		// apart are refused before either sizes one.
		{"far-apart seqs in one FEC window: whose", farApart, func([]byte) {}, "seqwin: FEC window of rtsp://"},
		{"far-apart seqs in one FEC window: what", farApart, func([]byte) {}, "are too far apart for one window (limit 65536)"},
		{"dial kind out of range", mid, func(b []byte) { b[waitAt-1] = 9 }, "dial kind 9"},
		{"waiting on a dial nobody issued", mid, func(b []byte) { b[waitAt+4] ^= 1 }, "no in-flight dial"},
	} {
		bad := append([]byte(nil), tc.snap...)
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

	// A snapshot in an earlier format — before dial state, before closed conns
	// froze their backlog — is refused on its magic, before any field is
	// misread.
	for _, magic := range []string{"RTSNAP1", "RTSNAP2"} {
		old := append([]byte(nil), snap...)
		copy(old[4:], magic)
		if _, err := Resume(bytes.NewReader(old), nil); err == nil || !strings.Contains(err.Error(), "incompatible build") {
			t.Errorf("want an %s header refused as an incompatible build, got %v", magic, err)
		}
	}
}

// TestCheckpointRejectsUnsupportedWorlds pins the two hard preconditions: the
// sink must be able to walk itself into the snapshot (one that cannot has
// already let the prefix's records go), and a sharded world's state is
// spread across goroutines. Both fail before a byte is written.
func TestCheckpointRejectsUnsupportedWorlds(t *testing.T) {
	for _, sink := range []trace.Sink{
		trace.SinkFunc(func(*trace.Record) {}),
		trace.NewCSVSink(&bytes.Buffer{}),
		trace.MultiSink{figures.NewAggregates()},
	} {
		w, err := NewWorld(Options{Seed: 1, MaxUsers: 2, ClipCap: 1})
		if err != nil {
			t.Fatal(err)
		}
		w.SetSink(sink)
		var out bytes.Buffer
		want := fmt.Sprintf("sink of type %T cannot be snapshotted", sink)
		if err := w.Checkpoint(&out); err == nil || !strings.Contains(err.Error(), want) || out.Len() != 0 {
			t.Fatalf("want %q and nothing written, got %v and %d bytes", want, err, out.Len())
		}
	}

	sw, err := NewWorld(Options{Seed: 1, MaxUsers: 8, ClipCap: 1, Workload: "poisson", Arrivals: 8, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Checkpoint(&bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "sharded") {
		t.Fatalf("want sharded-world error, got %v", err)
	}
}

// dialsInFlight counts the TCP dials in flight anywhere in w. Only user
// stacks dial.
func dialsInFlight(w *World) int {
	n := 0
	for _, st := range userStacks(w) {
		n += st.DialsInFlight()
	}
	return n
}

// TestCheckpointIsExactAndReadOnly pins what deleting closure events bought:
// on a busy open-loop world — where a TCP dial is in flight at about a third
// of all instants — Checkpoint succeeds at every cut, is cut at exactly the
// instant asked for, fires no event, and leaves the world it walked
// unchanged. One world is driven through every cut and checkpointed at each,
// so its own final records prove the walks were read-only; every snapshot
// resumes to the same records.
func TestCheckpointIsExactAndReadOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("resumes a 2M-event world from 20 cuts")
	}
	opt := Options{Seed: 1, MaxUsers: 200, ClipCap: 2, Workload: "poisson", Arrivals: 400}
	straight, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	want := recordsBytes(t, straight.Records)

	w, err := NewWorld(opt)
	if err != nil {
		t.Fatal(err)
	}
	const cuts = 20
	midDial := 0
	for i := 1; i <= cuts; i++ {
		cut := straight.SimDuration * time.Duration(i) / (cuts + 1)
		if err := w.RunUntil(cut); err != nil {
			t.Fatal(err)
		}
		fired, pending, dials := w.Clock.Fired(), w.Clock.Pending(), dialsInFlight(w)
		var snap bytes.Buffer
		if err := w.Checkpoint(&snap); err != nil {
			t.Fatalf("cut %d at %v (%d dials in flight): %v", i, cut, dials, err)
		}
		if now := w.Clock.Now(); now != cut {
			t.Fatalf("cut %d: checkpoint moved the clock from %v to %v", i, cut, now)
		}
		if f, p := w.Clock.Fired(), w.Clock.Pending(); f != fired || p != pending {
			t.Fatalf("cut %d: checkpoint changed the clock: fired %d -> %d, pending %d -> %d", i, fired, f, pending, p)
		}
		if dials > 0 {
			midDial++
		}
		if got := recordsBytes(t, resumeAndRun(t, snap.Bytes(), nil).Records); !bytes.Equal(got, want) {
			t.Fatalf("cut %d at %v (%d dials in flight): records after resume differ from the straight-through run", i, cut, dials)
		}
	}
	if midDial == 0 {
		t.Fatal("no cut landed on a dial in flight: the test no longer exercises mid-dial checkpoints")
	}
	t.Logf("%d of %d cuts had a dial in flight", midDial, cuts)

	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recordsBytes(t, res.Records), want) {
		t.Fatal("the world checkpointed 20 times finished with different records than one never checkpointed")
	}
}

// orphanDialWorld is a small pool under heavy churn in which user02.us hangs
// up 77 ms into a control dial (at 11m57.4s) and the same template arrives
// again 6 s later, 4 s before the orphaned dial times out.
var orphanDialWorld = Options{
	Seed: 4, MaxUsers: 4, ClipCap: 2,
	Workload: "poisson", Arrivals: 150, WorkloadIntensity: 8,
}

// TestCheckpointAcrossDepartureMidDial cuts a world at the two instants a
// mid-dial departure makes special. RemoveHost drops the dialing conn's packet
// handler but nothing cancels the dial: until its timeout it sits on the
// stack's list, open, first on a host that is not attached and then — deaf —
// on the host's next incarnation. Both snapshots must resume to the
// straight-through records; restoring the conn listening would be refused at
// the first cut and would let a late SYN-ACK establish it after the second.
func TestCheckpointAcrossDepartureMidDial(t *testing.T) {
	opt := orphanDialWorld
	straight, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	want := recordsBytes(t, straight.Records)

	// Scout for the instants: the first departure that leaves a dial behind
	// and is followed by the template's next arrival before the dial resolves.
	scout, err := NewWorld(opt)
	if err != nil {
		t.Fatal(err)
	}
	var host string
	var gone, back time.Duration
	for back == 0 && scout.Clock.Step() {
		now := scout.Clock.Now()
		switch {
		case host == "":
			for name, st := range userStacks(scout) {
				if st.DialsInFlight() > 0 && !scout.Net.Attached(name) {
					host, gone = name, now
				}
			}
		case userStacks(scout)[host].DialsInFlight() == 0:
			host = "" // timed out with the host still away; keep looking
		case scout.Net.Attached(host):
			back = now
		}
	}
	if back == 0 {
		t.Fatal("no departure mid-dial is followed by the same template's arrival while the dial is in flight: the test no longer exercises orphaned dials")
	}
	t.Logf("%s left mid-dial at %v and came back at %v", host, gone, back)

	for _, cut := range []time.Duration{gone, back + time.Second} {
		w := worldAt(t, opt, cut)
		if dials, attached := userStacks(w)[host].DialsInFlight(), w.Net.Attached(host); dials == 0 || attached != (cut > gone) {
			t.Fatalf("at %v %s has %d dials in flight and attached=%v: the cut missed the orphaned dial", cut, host, dials, attached)
		}
		if got := recordsBytes(t, resumeAndRun(t, checkpoint(t, w), nil).Records); !bytes.Equal(got, want) {
			t.Fatalf("records after resume from %v differ from the straight-through run", cut)
		}
	}
}

// countingWriter counts Write calls and can be told to fail them.
type countingWriter struct {
	writes, bytes int
	err           error
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.bytes += len(p)
	return len(p), w.err
}

// TestCheckpointBuffersItsWrites: the codec emits one Write per field (about
// 7 bytes each), so Checkpoint buffers them itself — a caller handing it a
// bare *os.File must not pay a syscall per field — and reports a write error
// the buffer only sees at flush time.
func TestCheckpointBuffersItsWrites(t *testing.T) {
	w := fenceWorld(t, fenceWorlds[0].opt)
	var out countingWriter
	if err := w.Checkpoint(&out); err != nil {
		t.Fatal(err)
	}
	if out.writes*1024 > out.bytes {
		t.Fatalf("%d writes for a %d-byte snapshot: writes are not buffered", out.writes, out.bytes)
	}
	full := countingWriter{err: errors.New("disk full")}
	if err := w.Checkpoint(&full); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("want the writer's error back, got %v", err)
	}
}
