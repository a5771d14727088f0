package netsim

import (
	"strconv"
	"testing"
	"time"

	"realtracer/internal/simclock"
)

func newNet(route Route) (*simclock.Clock, *Network) {
	clock := simclock.New()
	n := New(clock, StaticRoute(route), 42)
	n.AddHost(HostConfig{Name: "a", Access: DefaultAccessProfile(AccessServer)})
	n.AddHost(HostConfig{Name: "b", Access: DefaultAccessProfile(AccessT1LAN)})
	return clock, n
}

// leased is pkt as a sender hands it to Send: leased from n, both hosts
// resolved to their interned IDs (zero for a name never interned, which Send
// drops). The ports stay as given, so delivery goes through the address map.
func leased(n *Network, pkt Packet) *Packet {
	p := n.Obtain()
	*p = pkt
	p.FromID, p.ToID = n.HostIDOf(pkt.From.Host()), n.HostIDOf(pkt.To.Host())
	return p
}

func TestDeliveryLatency(t *testing.T) {
	clock, n := newNet(Route{OneWayDelay: 100 * time.Millisecond})
	n.Register("b:1", func(pkt *Packet) {
		// Propagation + two serializations + base delays; must be at least
		// the one-way delay and well under a second.
		now := clock.Now()
		if now < 100*time.Millisecond || now > 300*time.Millisecond {
			t.Errorf("delivery at %v", now)
		}
	})
	n.Send(leased(n, Packet{From: "a:9", To: "b:1", Size: 500}))
	clock.Run()
	if _, delivered, _ := n.Stats(); delivered != 1 {
		t.Fatal("packet not delivered")
	}
}

func TestRandomLossRate(t *testing.T) {
	clock, n := newNet(Route{LossRate: 0.3})
	got := 0
	n.Register("b:1", func(*Packet) { got++ })
	const total = 2000
	for i := 0; i < total; i++ {
		i := i
		clock.AfterHandler(time.Duration(i)*10*time.Millisecond, fireFunc(func(time.Duration) {
			n.Send(leased(n, Packet{From: "a:9", To: "b:1", Size: 200}))
		}))
	}
	clock.Run()
	frac := float64(got) / total
	if frac < 0.6 || frac > 0.8 {
		t.Fatalf("30%% loss delivered %.2f", frac)
	}
}

func TestCapacityLimitsThroughput(t *testing.T) {
	// A 100 Kbps route cannot deliver 1 Mbps of offered load.
	clock, n := newNet(Route{CapacityKbps: 100})
	var bytes int
	n.Register("b:1", func(pkt *Packet) { bytes += pkt.Size })
	for i := 0; i < 1000; i++ {
		i := i
		clock.AfterHandler(time.Duration(i)*10*time.Millisecond, fireFunc(func(time.Duration) { // 1000B every 10ms = 800 Kbps
			n.Send(leased(n, Packet{From: "a:9", To: "b:1", Size: 1000}))
		}))
	}
	clock.RunUntil(10 * time.Second)
	kbps := float64(bytes) * 8 / 1000 / 10
	if kbps > 130 {
		t.Fatalf("delivered %.0f Kbps through a 100 Kbps route", kbps)
	}
	if kbps < 50 {
		t.Fatalf("route starved: %.0f Kbps", kbps)
	}
}

func TestAccessLinkQueueOverflowDrops(t *testing.T) {
	clock := simclock.New()
	n := New(clock, StaticRoute(Route{}), 1)
	n.AddHost(HostConfig{Name: "a", Access: DefaultAccessProfile(AccessServer)})
	modem := DefaultAccessProfile(AccessModem) // ~50 Kbps down, 1.2 s queue
	n.AddHost(HostConfig{Name: "m", Access: modem})
	delivered := 0
	n.Register("m:1", func(*Packet) { delivered++ })
	// Offer 500 Kbps to a 50 Kbps modem for 5 seconds.
	for i := 0; i < 300; i++ {
		i := i
		clock.AfterHandler(time.Duration(i)*10*time.Millisecond, fireFunc(func(time.Duration) {
			n.Send(leased(n, Packet{From: "a:9", To: "m:1", Size: 625}))
		}))
	}
	clock.Run()
	_, _, dropped := n.Stats()
	if dropped == 0 {
		t.Fatal("10x overload should overflow the modem queue")
	}
	if delivered == 0 {
		t.Fatal("some packets must still get through")
	}
}

func TestUnknownHostsDrop(t *testing.T) {
	clock, n := newNet(Route{})
	n.Send(leased(n, Packet{From: "nope:1", To: "b:1", Size: 100}))
	n.Send(leased(n, Packet{From: "a:1", To: "ghost:1", Size: 100}))
	clock.Run()
	if _, _, dropped := n.Stats(); dropped != 2 {
		t.Fatalf("dropped=%d want 2", dropped)
	}
}

func TestUnregisteredAddrDrops(t *testing.T) {
	clock, n := newNet(Route{})
	n.Send(leased(n, Packet{From: "a:1", To: "b:99", Size: 100}))
	clock.Run()
	if _, delivered, dropped := n.Stats(); delivered != 0 || dropped != 1 {
		t.Fatalf("delivered=%d dropped=%d", delivered, dropped)
	}
}

func TestUnregisterStopsDelivery(t *testing.T) {
	clock, n := newNet(Route{})
	got := 0
	n.Register("b:1", func(*Packet) { got++ })
	n.Send(leased(n, Packet{From: "a:1", To: "b:1", Size: 10}))
	clock.Run()
	n.Unregister("b:1")
	n.Send(leased(n, Packet{From: "a:1", To: "b:1", Size: 10}))
	clock.Run()
	if got != 1 {
		t.Fatalf("got=%d want 1", got)
	}
}

func TestDuplicateHostPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddHost should panic")
		}
	}()
	_, n := newNet(Route{})
	n.AddHost(HostConfig{Name: "a"})
}

func TestRegisterUnknownHostPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Register on unknown host should panic")
		}
	}()
	_, n := newNet(Route{})
	n.Register("ghost:1", func(*Packet) {})
}

func TestCongestionStaysBounded(t *testing.T) {
	clock, n := newNet(Route{CapacityKbps: 500, CongestionMean: 0.5, CongestionVar: 0.3})
	for i := 0; i < 300; i++ {
		clock.AfterHandler(time.Duration(i)*time.Second, fireFunc(func(time.Duration) {
			c := n.Congestion("a", "b")
			if c < 0 || c > 0.95 {
				t.Errorf("congestion out of bounds: %v", c)
			}
		}))
	}
	clock.Run()
}

func TestSetCongestionMeanTakesEffect(t *testing.T) {
	clock, n := newNet(Route{CapacityKbps: 500, CongestionMean: 0.1, CongestionVar: 0})
	n.SetCongestionMean("a", "b", 0.9, 0)
	clock.RunUntil(30 * time.Second)
	if c := n.Congestion("a", "b"); c < 0.6 {
		t.Fatalf("congestion %.2f did not converge toward 0.9", c)
	}
}

func TestAddrHost(t *testing.T) {
	if Addr("host:123").Host() != "host" {
		t.Fatal("Host() failed")
	}
	if Addr("bare").Host() != "bare" {
		t.Fatal("portless Host() failed")
	}
}

func TestAccessClassString(t *testing.T) {
	for class, want := range map[AccessClass]string{
		AccessModem: "56k Modem", AccessDSLCable: "DSL/Cable",
		AccessT1LAN: "T1/LAN", AccessServer: "Server",
	} {
		if class.String() != want {
			t.Errorf("%v", class)
		}
	}
}

func TestJitterSpreadsDelivery(t *testing.T) {
	clock, n := newNet(Route{OneWayDelay: 50 * time.Millisecond, Jitter: 40 * time.Millisecond})
	var times []time.Duration
	n.Register("b:1", func(*Packet) { times = append(times, clock.Now()) })
	base := time.Duration(0)
	for i := 0; i < 50; i++ {
		i := i
		clock.AfterHandler(base+time.Duration(i)*100*time.Millisecond, fireFunc(func(time.Duration) {
			n.Send(leased(n, Packet{From: "a:1", To: "b:1", Size: 100}))
		}))
	}
	clock.Run()
	if len(times) != 50 {
		t.Fatalf("delivered %d", len(times))
	}
	// Inter-arrival gaps should vary (jitter), not be a constant 100 ms.
	varied := false
	for i := 2; i < len(times); i++ {
		g1 := times[i] - times[i-1]
		g2 := times[i-1] - times[i-2]
		if g1 != g2 {
			varied = true
			break
		}
	}
	if !varied {
		t.Fatal("jitter had no effect on inter-arrival times")
	}
}

// TestRemoveHostPurgesPathState is the remove/re-add regression: detaching a
// host must purge the per-path wide-area state in both directions, so a host
// re-added under the same name starts with fresh congestion and bottleneck
// queues instead of inheriting the dead host's.
func TestRemoveHostPurgesPathState(t *testing.T) {
	clock, n := newNet(Route{CapacityKbps: 100})
	n.Register("b:1", func(*Packet) {})
	// Saturate the a->b bottleneck so its fluid queue extends far into the
	// future.
	for i := 0; i < 50; i++ {
		n.Send(leased(n, Packet{From: "a:9", To: "b:1", Size: 1000}))
	}
	p := n.path(n.Intern("a"), n.Intern("b"))
	if p.busyUntil == 0 {
		t.Fatal("bottleneck queue did not build up")
	}
	// Also touch the reverse direction so both orientations have state.
	n.Send(leased(n, Packet{From: "b:1", To: "a:9", Size: 1000}))
	clock.Run()

	n.RemoveHost("b")
	n.AddHost(HostConfig{Name: "b", Access: DefaultAccessProfile(AccessT1LAN)})
	if got := n.path(n.Intern("a"), n.Intern("b")).busyUntil; got != 0 {
		t.Fatalf("re-added host inherited a->b busyUntil=%v, want fresh state", got)
	}
	if got := n.path(n.Intern("b"), n.Intern("a")).busyUntil; got != 0 {
		t.Fatalf("re-added host inherited b->a busyUntil=%v, want fresh state", got)
	}
	// The re-added host must receive traffic normally (same interned ID).
	got := 0
	n.Register("b:1", func(*Packet) { got++ })
	n.Send(leased(n, Packet{From: "a:9", To: "b:1", Size: 100}))
	clock.Run()
	if got != 1 {
		t.Fatalf("re-added host received %d packets, want 1", got)
	}
}

// TestRemoveHostDropsInFlight pins delivery semantics across removal: a
// packet in flight to a removed host is dropped, and handlers of the old
// incarnation do not leak onto the new one.
func TestRemoveHostDropsInFlight(t *testing.T) {
	clock, n := newNet(Route{OneWayDelay: 100 * time.Millisecond})
	oldGot := 0
	n.Register("b:1", func(*Packet) { oldGot++ })
	n.Send(leased(n, Packet{From: "a:9", To: "b:1", Size: 100}))
	n.RemoveHost("b")
	clock.Run()
	if oldGot != 0 {
		t.Fatalf("removed host still received %d packets", oldGot)
	}
	if _, _, dropped := n.Stats(); dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	// Re-add: the old registration must be gone.
	n.AddHost(HostConfig{Name: "b", Access: DefaultAccessProfile(AccessT1LAN)})
	n.Send(leased(n, Packet{From: "a:9", To: "b:1", Size: 100}))
	clock.Run()
	if oldGot != 0 {
		t.Fatalf("stale handler fired %d times after re-add", oldGot)
	}
}

// TestPooledPacketRoundTrip checks Obtain/Send recycling: steady-state
// sends reuse one packet and one clock event, and the pool never hands out
// a packet that is still in flight.
func TestPooledPacketRoundTrip(t *testing.T) {
	clock, n := newNet(Route{})
	var sizes []int
	n.Register("b:1", func(pkt *Packet) { sizes = append(sizes, pkt.Size) })
	for i := 0; i < 100; i++ {
		n.Send(leased(n, Packet{From: "a:9", To: "b:1", Size: 100 + i}))
		clock.Run()
	}
	for i, sz := range sizes {
		if sz != 100+i {
			t.Fatalf("delivery %d saw size %d, want %d", i, sz, 100+i)
		}
	}
	if len(n.free) != 1 {
		t.Fatalf("free list has %d packets after serial round trips, want 1", len(n.free))
	}
}

// TestRemoveHostReleasesInFlightPooled extends the churn regression to the
// packet pool: a host torn down with pooled packets still in flight must
// not leak them — every drop path releases back to the free-list, so the
// PR 4 steady-state alloc budget survives user churn.
func TestRemoveHostReleasesInFlightPooled(t *testing.T) {
	clock, n := newNet(Route{OneWayDelay: 200 * time.Millisecond})
	n.Register("b:1", func(*Packet) {})
	const inFlight = 20
	for i := 0; i < inFlight; i++ {
		n.Send(leased(n, Packet{From: "a:9", To: "b:1", Size: 500}))
	}
	// Mid-stream departure: the destination host leaves with every packet
	// still on the wire.
	n.RemoveHost("b")
	clock.Run()
	sent, delivered, dropped := n.Stats()
	if delivered != 0 || dropped != sent {
		t.Fatalf("conservation broken across removal: sent=%d delivered=%d dropped=%d", sent, delivered, dropped)
	}
	if got := len(n.free); got != inFlight {
		t.Fatalf("free-list holds %d packets after churn, want all %d released", got, inFlight)
	}
	// A re-arrival under the same name starts clean and streams normally
	// off the recycled pool — no fresh allocations needed.
	n.AddHost(HostConfig{Name: "b", Access: DefaultAccessProfile(AccessT1LAN)})
	got := 0
	n.Register("b:1", func(*Packet) { got++ })
	n.Send(leased(n, Packet{From: "a:9", To: "b:1", Size: 100}))
	clock.Run()
	if got != 1 {
		t.Fatalf("re-arrived host received %d packets, want 1", got)
	}
	if len(n.free) != inFlight {
		t.Fatalf("free-list holds %d after re-arrival delivery, want %d", len(n.free), inFlight)
	}
}

// TestAttached tracks the host lifecycle the churn layer drives.
func TestAttached(t *testing.T) {
	_, n := newNet(Route{})
	if !n.Attached("a") || !n.Attached("b") {
		t.Fatal("added hosts not attached")
	}
	if n.Attached("ghost") {
		t.Fatal("unknown host attached")
	}
	n.RemoveHost("b")
	if n.Attached("b") {
		t.Fatal("removed host still attached")
	}
	n.AddHost(HostConfig{Name: "b", Access: DefaultAccessProfile(AccessModem)})
	if !n.Attached("b") {
		t.Fatal("re-added host not attached")
	}
}

// TestBaseRTT: the probe is symmetric, includes both access base delays and
// both directions' propagation, and draws no randomness (same value twice).
func TestBaseRTT(t *testing.T) {
	clock := simclock.New()
	n := New(clock, StaticRoute(Route{OneWayDelay: 50 * time.Millisecond}), 1)
	n.AddHost(HostConfig{Name: "a", Access: AccessProfile{BaseDelay: 10 * time.Millisecond, DownKbps: 100, UpKbps: 100}})
	n.AddHost(HostConfig{Name: "b", Access: AccessProfile{BaseDelay: 5 * time.Millisecond, DownKbps: 100, UpKbps: 100}})
	want := 2*50*time.Millisecond + 2*10*time.Millisecond + 2*5*time.Millisecond
	if got := n.BaseRTT("a", "b"); got != want {
		t.Fatalf("BaseRTT = %v, want %v", got, want)
	}
	if n.BaseRTT("a", "b") != n.BaseRTT("b", "a") {
		t.Fatal("BaseRTT not symmetric")
	}
	if n.BaseRTT("a", "b") != n.BaseRTT("a", "b") {
		t.Fatal("BaseRTT not deterministic")
	}
}

// TestPortTableFindsEachPortsOwnHandler registers a server's three service
// ports and a run of conn ports, and sends to each of them and to the
// unregistered ports beside them — one that shares a service port's slot,
// the ports between the two ranges, one past the run — with the ports
// pre-parsed, as senders hand them over. Each registered port reaches its
// own handler and nothing else is delivered, before and after one port of
// each range is unregistered and the host is removed and attached again.
func TestPortTableFindsEachPortsOwnHandler(t *testing.T) {
	clock, n := newNet(Route{})
	got := map[int32]int32{} // packets by the port whose handler took them
	register := func(p int32) {
		n.Register(Addr("b:"+itoa(p)), func(pkt *Packet) { got[p] = pkt.ToPort })
	}
	registered := []int32{554, 5540, 6970, 10001, 10002, 10003}
	for _, p := range registered {
		register(p)
	}
	send := func(p int32) {
		pkt := leased(n, Packet{From: "a:9", To: Addr("b:" + itoa(p)), Size: 10})
		pkt.ToPort = p
		n.Send(pkt)
		clock.Run()
	}
	check := func(live map[int32]bool) {
		t.Helper()
		for _, p := range []int32{554, 586, 5540, 6938, 6970, 9999, 10000, 10001, 10002, 10003, 10004} {
			clear(got)
			send(p)
			switch to, ok := got[p]; {
			case live[p] && (!ok || to != p || len(got) != 1):
				t.Errorf("a packet to port %d reached %v, want its own handler only", p, got)
			case !live[p] && len(got) != 0:
				t.Errorf("a packet to unregistered port %d reached %v", p, got)
			}
		}
	}
	live := map[int32]bool{}
	for _, p := range registered {
		live[p] = true
	}
	check(live)
	n.Unregister("b:6970")
	n.Unregister("b:10002")
	live[6970], live[10002] = false, false
	check(live)
	n.RemoveHost("b")
	n.AddHost(HostConfig{Name: "b", Access: DefaultAccessProfile(AccessT1LAN)})
	check(map[int32]bool{})
	register(6970)
	register(10002)
	check(map[int32]bool{6970: true, 10002: true})
}

func itoa(p int32) string { return strconv.Itoa(int(p)) }
