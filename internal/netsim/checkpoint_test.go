package netsim

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
	"time"
	"unsafe"

	"realtracer/internal/simclock"
	"realtracer/internal/snap"
)

// delivery is one recorded packet arrival.
type delivery struct {
	at      time.Duration
	to      Addr
	payload int64
	size    int
}

// syncI64 walks the test's int64 payloads.
func syncI64(c *snap.Codec, payload *any) {
	v, _ := (*payload).(int64)
	c.I64(&v)
	*payload = v
}

// ckptWorld is a tiny two-host world with loss, jitter, a capacity
// bottleneck, cross-traffic and a dynamics schedule — every draw stream the
// checkpoint must capture.
type ckptWorld struct {
	clock *simclock.Clock
	net   *Network
	log   []delivery
}

func newCkptWorld() *ckptWorld {
	w := &ckptWorld{clock: simclock.New()}
	routes := StaticRoute{
		OneWayDelay:    40 * time.Millisecond,
		Jitter:         10 * time.Millisecond,
		LossRate:       0.02,
		CapacityKbps:   400,
		CongestionMean: 0.3,
		CongestionVar:  0.1,
	}
	w.net = New(w.clock, routes, 42)
	setCkptDynamics(w.net)
	w.net.AddHost(HostConfig{Name: "a", Access: DefaultAccessProfile(AccessServer)})
	w.net.AddHost(HostConfig{Name: "b", Access: DefaultAccessProfile(AccessModem)})
	record := func(pkt *Packet) {
		w.log = append(w.log, delivery{w.clock.Now(), pkt.To, pkt.Payload.(int64), pkt.Size})
	}
	w.net.Register("a:1", record)
	w.net.Register("b:1", record)
	return w
}

// setCkptDynamics installs newCkptWorld's dynamics schedule on n.
func setCkptDynamics(n *Network) {
	n.SetDynamics(NewDynamics().
		LossBurst("*", "*", 100*time.Millisecond, 2*time.Second, 0.3, 0.5, 0.4).
		Diurnal("a", "*", 0, 0, time.Second, 0.2), 77)
}

// drive advances the world through send ticks [from, to): each tick advances
// the clock and offers two packets, one in each direction.
func (w *ckptWorld) drive(from, to int) {
	for i := from; i < to; i++ {
		w.clock.RunUntil(time.Duration(i) * 5 * time.Millisecond)
		w.net.Send(leased(w.net, Packet{From: "a:1", To: "b:1", Size: 500 + (i%7)*100, Payload: int64(i)}))
		w.net.Send(leased(w.net, Packet{From: "b:1", To: "a:1", Size: 80, Payload: int64(-i)}))
	}
}

func checkpointNet(t *testing.T, n *Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	c := snap.NewEncoder(&buf)
	n.Clock.Sync(c)
	n.Sync(c, nil, nil)
	n.SyncPackets(c, syncI64)
	if err := c.Err(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	return buf.Bytes()
}

// TestNetworkCheckpointRoundTrip drives traffic to a mid-flight instant,
// checkpoints, restores into a freshly built twin, and checks the restored
// world's remaining deliveries — and its next checkpoint — are identical to
// the original's.
func TestNetworkCheckpointRoundTrip(t *testing.T) {
	const cut, end = 100, 200

	w1 := newCkptWorld()
	w1.drive(0, cut)
	snapBytes := checkpointNet(t, w1.net)
	if w1.clock.Pending() == 0 {
		t.Fatal("test needs in-flight packets at the checkpoint instant")
	}

	// Rebuild the static world exactly as a fresh build would, then overlay.
	w2 := newCkptWorld()
	c := snap.NewDecoder(snapBytes)
	w2.clock.Sync(c)
	w2.net.Sync(c, nil, nil)
	w2.net.SyncPackets(c, syncI64)
	if err := c.Err(); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got, want := w2.clock.Pending(), w1.clock.Pending(); got != want {
		t.Fatalf("restored %d in-flight packets, original holds %d", got, want)
	}
	w2.log = nil

	cutLen := len(w1.log)
	w1.drive(cut, end)
	w1.clock.Run()
	w2.drive(cut, end)
	w2.clock.Run()

	tail1 := w1.log[cutLen:]
	if len(tail1) != len(w2.log) {
		t.Fatalf("resumed run delivered %d packets, straight run %d", len(w2.log), len(tail1))
	}
	for i := range tail1 {
		if tail1[i] != w2.log[i] {
			t.Fatalf("delivery %d diverged: straight %+v, resumed %+v", i, tail1[i], w2.log[i])
		}
	}

	s1, d1, r1 := w1.net.Stats()
	s2, d2, r2 := w2.net.Stats()
	if s1 != s2 || d1 != d2 || r1 != r2 {
		t.Fatalf("stats diverged: straight (%d,%d,%d), resumed (%d,%d,%d)", s1, d1, r1, s2, d2, r2)
	}
	if b1, b2 := checkpointNet(t, w1.net), checkpointNet(t, w2.net); !bytes.Equal(b1, b2) {
		t.Fatalf("post-resume checkpoints differ (%d vs %d bytes)", len(b1), len(b2))
	}
}

// TestNetworkRestoreRejectsInterningMismatch pins the loud-failure contract:
// restoring into a world whose build interned different names errors instead
// of silently mis-wiring HostIDs. The world runs the snapshot's dynamics
// schedule, so the names are what disagree.
func TestNetworkRestoreRejectsInterningMismatch(t *testing.T) {
	w1 := newCkptWorld()
	w1.drive(0, 20)
	snapBytes := checkpointNet(t, w1.net)

	clock := simclock.New()
	n2 := New(clock, StaticRoute{}, 42)
	setCkptDynamics(n2)
	n2.AddHost(HostConfig{Name: "z", Access: DefaultAccessProfile(AccessServer)})
	c := snap.NewDecoder(snapBytes)
	clock.Sync(c)
	n2.Sync(c, nil, nil)
	err := c.Err()
	if err == nil {
		t.Fatal("restore into a mismatched world succeeded")
	}
	if want := "interning mismatch"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}

// TestNetworkRestoreRejectsDynamicsMismatch: a snapshot and the network it
// is restored into agree on whether a dynamics schedule runs, or the restore
// fails naming dynamics. Otherwise one side's dynamics stream and per-path
// chain state would be dropped, or the rebuilt world's left unpositioned.
func TestNetworkRestoreRejectsDynamicsMismatch(t *testing.T) {
	calm := func() *Network { // newCkptWorld's hosts without its schedule
		n := New(simclock.New(), StaticRoute{}, 42)
		n.AddHost(HostConfig{Name: "a", Access: DefaultAccessProfile(AccessServer)})
		n.AddHost(HostConfig{Name: "b", Access: DefaultAccessProfile(AccessModem)})
		return n
	}
	weather := newCkptWorld()
	weather.drive(0, 20)
	for _, tc := range []struct {
		name     string
		from, to *Network
	}{
		{"weather into calm", weather.net, calm()},
		{"calm into weather", calm(), newCkptWorld().net},
	} {
		c := snap.NewDecoder(checkpointNet(t, tc.from))
		tc.to.Clock.Sync(c)
		tc.to.Sync(c, nil, nil)
		if err := c.Err(); err == nil || !strings.Contains(err.Error(), "dynamics") {
			t.Errorf("%s: restore error = %v, want one naming dynamics", tc.name, err)
		}
	}
}

// TestNetworkRestoreBoundsPathTable pins the hostile-input bound on the one
// restore allocation a field's value sizes: a snapshot whose path list names
// 600 sources, each with a path to host 5,000, asks for 3M row slots on the
// strength of ~130 KB of input, and must be refused rather than obeyed.
func TestNetworkRestoreBoundsPathTable(t *testing.T) {
	const names, sources = 5000, 600
	build := func() *Network {
		n := New(simclock.New(), nil, 1)
		for i := 0; i < names; i++ {
			n.Intern(fmt.Sprintf("h%d", i))
		}
		return n
	}
	// The encoder's rows share one backing array, so writing the snapshot
	// does not itself cost what reading it would.
	n1 := build()
	n1.path(1, names)
	for from := 2; from <= sources; from++ {
		n1.rows[from] = n1.rows[1]
	}
	n2 := build()
	c := snap.NewDecoder(checkpointNet(t, n1))
	n2.Clock.Sync(c)
	n2.Sync(c, nil, nil)
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "path table") {
		t.Fatalf("restore error = %v, want the path-table budget to refuse it", err)
	}
}

// decodedSnapSHA pins the bytes checkpointNet writes for newCkptWorld driven
// through 40 send ticks, as written before decoding interned strings.
const decodedSnapSHA = "ddf1e3cc62dd0aa1c4abcf8d5f93a31c92a723d8c1a410a41615ad55466492e1"

// TestDecodedStringsAreShared: a decode builds each distinct string once. The
// in-flight packets of a restored network that name one address share one
// copy of it — not the snapshot's bytes, which the caller may reuse — and
// interning changes no encoded byte: the snapshot is the one written before,
// and the restored network writes it again.
func TestDecodedStringsAreShared(t *testing.T) {
	w1 := newCkptWorld()
	w1.drive(0, 40)
	snapBytes := checkpointNet(t, w1.net)
	if got := fmt.Sprintf("%x", sha256.Sum256(snapBytes)); got != decodedSnapSHA {
		t.Errorf("snapshot sha256 %s, want %s", got, decodedSnapSHA)
	}

	w2 := newCkptWorld()
	c := snap.NewDecoder(snapBytes)
	w2.clock.Sync(c)
	w2.net.Sync(c, nil, nil)
	w2.net.SyncPackets(c, syncI64)
	if err := c.Err(); err != nil {
		t.Fatalf("restore: %v", err)
	}
	first := map[Addr]*byte{}
	inSnap := func(p *byte) bool {
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(snapBytes)))
		return uintptr(unsafe.Pointer(p)) >= lo && uintptr(unsafe.Pointer(p)) < lo+uintptr(len(snapBytes))
	}
	shared := 0
	for _, pe := range w2.clock.Pendings() {
		pkt, ok := pe.Handler.(*Packet)
		if !ok {
			continue
		}
		for _, a := range []Addr{pkt.From, pkt.To} {
			p := unsafe.StringData(string(a))
			if inSnap(p) {
				t.Fatalf("address %q decodes into the snapshot's own bytes", a)
			}
			if q, seen := first[a]; !seen {
				first[a] = p
			} else if p != q {
				t.Errorf("two restored packets name %q from separate copies", a)
			} else {
				shared++
			}
		}
	}
	if len(first) != 2 || shared == 0 {
		t.Fatalf("restored packets name %d addresses with %d shared occurrences; the test needs both hosts' addresses repeated", len(first), shared)
	}
	if again := checkpointNet(t, w2.net); !bytes.Equal(again, snapBytes) {
		t.Error("the restored network writes a snapshot other than the one it was restored from")
	}
}
