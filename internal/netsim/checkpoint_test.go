package netsim

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

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
	w.net.SetDynamics(NewDynamics().
		LossBurst("*", "*", 100*time.Millisecond, 2*time.Second, 0.3, 0.5, 0.4).
		Diurnal("a", "*", 0, 0, time.Second, 0.2), 77)
	w.net.AddHost(HostConfig{Name: "a", Access: DefaultAccessProfile(AccessServer)})
	w.net.AddHost(HostConfig{Name: "b", Access: DefaultAccessProfile(AccessModem)})
	record := func(pkt *Packet) {
		w.log = append(w.log, delivery{w.clock.Now(), pkt.To, pkt.Payload.(int64), pkt.Size})
	}
	w.net.Register("a:1", record)
	w.net.Register("b:1", record)
	return w
}

// drive advances the world through send ticks [from, to): each tick advances
// the clock and offers two packets, one in each direction.
func (w *ckptWorld) drive(from, to int) {
	for i := from; i < to; i++ {
		w.clock.RunUntil(time.Duration(i) * 5 * time.Millisecond)
		a := w.net.Obtain()
		a.From, a.To = "a:1", "b:1"
		a.Size = 500 + (i%7)*100
		a.Payload = int64(i)
		w.net.Send(a)
		b := w.net.Obtain()
		b.From, b.To = "b:1", "a:1"
		b.Size = 80
		b.Payload = int64(-i)
		w.net.Send(b)
	}
}

func checkpointNet(t *testing.T, n *Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	c := snap.NewEncoder(&buf)
	n.Clock.Sync(c)
	n.Sync(c, true)
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
	w2.net.Sync(c, true)
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
// of silently mis-wiring HostIDs.
func TestNetworkRestoreRejectsInterningMismatch(t *testing.T) {
	w1 := newCkptWorld()
	w1.drive(0, 20)
	snapBytes := checkpointNet(t, w1.net)

	clock := simclock.New()
	n2 := New(clock, StaticRoute{}, 42)
	n2.AddHost(HostConfig{Name: "z", Access: DefaultAccessProfile(AccessServer)})
	c := snap.NewDecoder(snapBytes)
	clock.Sync(c)
	n2.Sync(c, false)
	err := c.Err()
	if err == nil {
		t.Fatal("restore into a mismatched world succeeded")
	}
	if want := "interning mismatch"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("error %q does not mention %q", err, want)
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
	n2.Sync(c, false)
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "path table") {
		t.Fatalf("restore error = %v, want the path-table budget to refuse it", err)
	}
}
