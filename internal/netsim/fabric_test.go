package netsim

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"realtracer/internal/simclock"
)

// TestInspectionDoesNotIntern pins the read-only contract of the name-based
// inspection APIs: probing a pair the network has never seen must not grow
// the host table. These queries used to route through Intern, so a typo'd
// or speculative probe permanently allocated a host ID, and with it one
// entry in every table indexed by HostID.
func TestInspectionDoesNotIntern(t *testing.T) {
	clock, n := newNet(Route{OneWayDelay: 40 * time.Millisecond, CongestionMean: 0.25})
	hosts, interned := len(n.hostTab), len(n.ids)

	// Known pair: the full answer, read-only.
	if rtt := n.BaseRTT("a", "b"); rtt < 80*time.Millisecond {
		t.Errorf("BaseRTT(a, b) = %v, want at least the 2x one-way delay", rtt)
	}
	// Never-seen names resolve to the zero route: access delays only for a
	// known endpoint, zero for a pair of strangers — degraded answers, but
	// no state is created to produce them.
	if rtt := n.BaseRTT("phantom", "wraith"); rtt != 0 {
		t.Errorf("BaseRTT(phantom, wraith) = %v, want 0", rtt)
	}
	if c := n.Congestion("a", "ghost"); c != 0 {
		t.Errorf("Congestion(a, ghost) = %v, want the zero route's 0", c)
	}
	if c := n.Congestion("a", "b"); c != 0.25 {
		t.Errorf("Congestion(a, b) = %v, want the calibrated mean 0.25", c)
	}
	if id := n.HostIDOf("ghost"); id != 0 {
		t.Errorf("HostIDOf(ghost) = %d, want 0", id)
	}

	if len(n.hostTab) != hosts || len(n.ids) != interned {
		t.Fatalf("inspection grew the host table: %d->%d hosts, %d->%d names",
			hosts, len(n.hostTab), interned, len(n.ids))
	}

	// SetCongestionMean is the one deliberate mutator in the name-based
	// API: installing path state for a pair is its whole job.
	n.SetCongestionMean("a", "ghost", 0.9, 0)
	if len(n.ids) != interned+1 {
		t.Fatalf("SetCongestionMean did not intern its target: %d names, want %d",
			len(n.ids), interned+1)
	}
	// With zero variance the AR(1) process converges deterministically
	// toward the installed mean.
	clock.RunUntil(5 * time.Second)
	if c := n.Congestion("a", "ghost"); c <= 0.25 {
		t.Errorf("Congestion after SetCongestionMean = %v, want a pull toward 0.9", c)
	}
}

// oldGridLimit is where path state used to leave a flat grid for a map (and
// where a sharded world used to be refused). The row table has no such bound;
// the tests below cross the old one to keep it that way.
const oldGridLimit = 1024

// internPast grows the interned-name table beyond count names.
func internPast(intern func(string) HostID, count int) {
	for i := 0; int(intern(fmt.Sprintf("filler%d", i))) <= count; i++ {
	}
}

// TestPathStateSurvivesTableGrowth grows the name table past 1,100 entries
// mid-run: path state built while it was small (a bottleneck queue extending
// into the future, a packet still in flight) must survive untouched, and
// traffic must keep flowing afterwards — to old hosts and, growing the
// sender's row a thousand slots at once, to one interned after the growth.
func TestPathStateSurvivesTableGrowth(t *testing.T) {
	clock, n := newNet(Route{CapacityKbps: 100, OneWayDelay: 50 * time.Millisecond})
	delivered := 0
	n.Register("b:1", func(*Packet) { delivered++ })
	for i := 0; i < 20; i++ {
		n.Send(leased(n, Packet{From: "a:9", To: "b:1", Size: 1000}))
	}
	p := n.path(n.Intern("a"), n.Intern("b"))
	if p.busyUntil == 0 {
		t.Fatal("bottleneck queue did not build up before the table grew")
	}
	busy := p.busyUntil

	internPast(n.Intern, 1100)
	n.AddHost(HostConfig{Name: "late", Access: DefaultAccessProfile(AccessT1LAN)})
	if id := n.HostIDOf("late"); id <= 1100 {
		t.Fatalf("late host got ID %d, want one past 1100", id)
	}
	n.Register("late:1", func(*Packet) { delivered++ })
	n.Register("a:9", func(*Packet) { delivered++ })
	n.Send(leased(n, Packet{From: "a:9", To: "late:1", Size: 500}))
	n.Send(leased(n, Packet{From: "late:1", To: "a:9", Size: 500}))
	if got := n.pathLookup(n.Intern("a"), n.Intern("b")); got != p || got.busyUntil != busy {
		t.Fatalf("growing the table rebuilt the a->b path state (lost %v of queue)", busy)
	}

	clock.Run()
	if delivered != 22 {
		t.Fatalf("delivered %d packets, want the 20 in flight across the growth and 2 after it", delivered)
	}
	n.Send(leased(n, Packet{From: "a:9", To: "b:1", Size: 500}))
	clock.Run()
	if _, del, _ := n.Stats(); del != 23 || delivered != 23 {
		t.Fatalf("delivery count skewed after the growth: stats %d, handlers %d, want 23", del, delivered)
	}
}

// TestRemoveHostPurgesLargeTable is TestRemoveHostPurgesPathState on a
// network of more than 1,024 names, for both engines: the classic one purges
// both directions of the departed host's path state, a shard of a fabric
// only the host's own row (the column belongs to other sources' shards), and
// either way a host re-added under the same name is reachable again and
// sends over fresh state. Freezing a fabric this large used to panic.
func TestRemoveHostPurgesLargeTable(t *testing.T) {
	for _, sharded := range []bool{false, true} {
		t.Run(fmt.Sprintf("sharded=%v", sharded), func(t *testing.T) {
			var n *Network
			var run func()
			if sharded {
				fab := NewFabric(1, StaticRoute{CapacityKbps: 100, OneWayDelay: 30 * time.Millisecond}, 42)
				internPast(func(name string) HostID { return fab.Intern(0, name) }, oldGridLimit)
				fab.AddHost(0, HostConfig{Name: "a", Access: DefaultAccessProfile(AccessServer)})
				fab.AddHost(0, HostConfig{Name: "b", Access: DefaultAccessProfile(AccessT1LAN)})
				fab.Freeze(25 * time.Millisecond)
				n, run = fab.Net(0), func() { fab.Run(nil) }
			} else {
				var clock *simclock.Clock
				clock, n = newNet(Route{CapacityKbps: 100})
				internPast(n.Intern, oldGridLimit)
				run = clock.Run
			}
			a, b := n.HostIDOf("a"), n.HostIDOf("b")
			n.Register("b:1", func(*Packet) {})
			for i := 0; i < 50; i++ {
				n.Send(leased(n, Packet{From: "a:9", To: "b:1", Size: 1000}))
			}
			n.Send(leased(n, Packet{From: "b:1", To: "a:9", Size: 1000}))
			if p := n.pathLookup(a, b); p == nil || p.busyUntil == 0 {
				t.Fatal("bottleneck queue did not build up")
			}
			run()

			n.RemoveHost("b")
			if p := n.pathLookup(b, a); p != nil {
				t.Fatal("RemoveHost left the departed host's own row (b->a) behind")
			}
			if p := n.pathLookup(a, b); (p != nil) != sharded {
				t.Fatalf("a->b state after RemoveHost: present=%v, want purged on the classic engine and kept on a shard", p != nil)
			}

			n.AddHost(HostConfig{Name: "b", Access: DefaultAccessProfile(AccessT1LAN)})
			if got := n.path(b, a).busyUntil; got != 0 {
				t.Fatalf("re-added host inherited b->a busyUntil=%v, want fresh state", got)
			}
			got := 0
			n.Register("b:1", func(*Packet) { got++ })
			n.Send(leased(n, Packet{From: "a:9", To: "b:1", Size: 100}))
			run()
			if got != 1 {
				t.Fatalf("re-added host received %d packets, want 1", got)
			}
		})
	}
}

// TestRecycledPathRestartsItsStream: a path state purged with its source
// host keeps its generator for the next path that takes the state, and the
// re-seed restarts the stream. A path re-created after its host left and
// came back draws what a fresh source seeded for the pair draws, exactly as
// the first path did, although its stream stopped midway.
func TestRecycledPathRestartsItsStream(t *testing.T) {
	fab := fabricRig(1, Route{})
	n := fab.Net(0)
	a, b := n.HostIDOf("a"), n.HostIDOf("b")
	draws := func(rng *rand.Rand) []float64 {
		var out []float64
		for range 4 {
			out = append(out, rng.Float64(), rng.NormFloat64(), float64(rng.Int63n(1000)))
		}
		return out
	}
	want := draws(rand.New(rand.NewSource(n.pathSeed ^ (int64(b)<<20 | int64(a)))))

	p := n.path(b, a)
	rng, _ := n.streams(p, b, a)
	if got := draws(rng); !slices.Equal(got, want) {
		t.Fatalf("a new path draws %v, want %v", got, want)
	}
	n.RemoveHost("b")
	n.AddHost(HostConfig{Name: "b", Access: DefaultAccessProfile(AccessT1LAN)})
	q := n.path(b, a)
	if q != p {
		t.Fatal("the re-created path did not take the purged state, so nothing here was recycled")
	}
	rng, _ = n.streams(q, b, a)
	if got := draws(rng); !slices.Equal(got, want) {
		t.Fatalf("a recycled path draws %v, want %v (the fresh stream's)", got, want)
	}
}

// TestPathTableIsSparse pins what the row table costs: 5,000 users each
// talking to 11 servers, both directions, hold a few slots per (server,
// user) pair — not the 25 million of a users x users grid.
func TestPathTableIsSparse(t *testing.T) {
	const servers, users = 11, 5000
	n := New(simclock.New(), nil, 1)
	for i := 0; i < servers; i++ {
		n.Intern(fmt.Sprintf("server%d", i))
	}
	for u := 0; u < users; u++ {
		user := n.Intern(fmt.Sprintf("user%d", u))
		for s := 1; s <= servers; s++ {
			n.path(user, HostID(s))
			n.path(HostID(s), user)
		}
	}
	slots, paths := 0, 0
	for _, row := range n.rows {
		slots += cap(row)
	}
	n.forEachPath(func(_, _ HostID, _ *pathState) { paths++ })
	if paths != 2*servers*users {
		t.Fatalf("%d paths, want %d", paths, 2*servers*users)
	}
	if limit := 4 * servers * users; slots > limit {
		t.Fatalf("path table holds %d slots for %d paths, want at most %d (O(servers x users))", slots, paths, limit)
	}
}

// fabricRig builds a small sharded world: "a" on shard 0, "b" on the last
// shard, both attached, frozen at a 25ms lookahead.
func fabricRig(shards int, route Route) *Fabric {
	fab := NewFabric(shards, StaticRoute(route), 42)
	fab.AddHost(0, HostConfig{Name: "a", Access: DefaultAccessProfile(AccessServer)})
	fab.AddHost(shards-1, HostConfig{Name: "b", Access: DefaultAccessProfile(AccessT1LAN)})
	fab.Freeze(25 * time.Millisecond)
	return fab
}

// TestFabricCrossShardDelivery is the fabric smoke test: packets sent from
// one shard arrive on another, exactly once each, no earlier than the
// one-way delay, with conserved counters.
func TestFabricCrossShardDelivery(t *testing.T) {
	fab := fabricRig(2, Route{OneWayDelay: 100 * time.Millisecond})
	var got int
	var last time.Duration
	fab.Net(1).Register("b:1", func(p *Packet) {
		got++
		last = fab.Clock(1).Now()
		if p.Payload != "ping" {
			t.Errorf("payload %v did not survive transit", p.Payload)
		}
	})
	const sends = 10
	for i := 0; i < sends; i++ {
		i := i
		fab.Clock(0).AfterHandler(time.Duration(i)*time.Millisecond, fireFunc(func(time.Duration) {
			fab.Net(0).Send(leased(fab.Net(0), Packet{From: "a:9", To: "b:1", Size: 500, Payload: "ping"}))
		}))
	}
	fab.Run(nil)
	if got != sends {
		t.Fatalf("delivered %d of %d cross-shard packets", got, sends)
	}
	if last < 100*time.Millisecond {
		t.Fatalf("delivery at %v, before the one-way delay", last)
	}
	sent, delivered, dropped := fab.Stats()
	if sent != sends || delivered != sends || dropped != 0 {
		t.Fatalf("counters sent=%d delivered=%d dropped=%d, want %d/%d/0", sent, delivered, dropped, sends, sends)
	}
}

// pairRoutes is a RouteTable with one route per ordered pair of host names.
type pairRoutes map[[2]string]Route

func (r pairRoutes) Route(from, to string) Route { return r[[2]string{from, to}] }

// TestDownlinkServesInArrivalOrder: an access link serves packets in the
// order they reach it. Two packets go to one idle host, the later-sent one
// on a path 270 ms shorter, so it arrives first; each finds the downlink
// idle, so neither waits beyond its own transmission time, and both are
// delivered. A classic arm would fail: that engine prices the downlink at
// send time, in send order, and queues the near packet behind the far one
// that has not arrived yet (ROADMAP item 17).
func TestDownlinkServesInArrivalOrder(t *testing.T) {
	modem := DefaultAccessProfile(AccessModem) // 160 ms to transmit 1,000 bytes
	lan := DefaultAccessProfile(AccessT1LAN)
	routes := pairRoutes{
		{"far", "dst"}:  {OneWayDelay: 300 * time.Millisecond},
		{"near", "dst"}: {OneWayDelay: 30 * time.Millisecond},
	}
	fab := NewFabric(1, routes, 42)
	for _, h := range []HostConfig{{Name: "dst", Access: modem}, {Name: "far", Access: lan}, {Name: "near", Access: lan}} {
		fab.AddHost(0, h)
	}
	fab.Freeze(25 * time.Millisecond)
	n, clock := fab.Net(0), fab.Clock(0)

	const size = 1000
	bits := float64(size * 8)
	got := map[any]time.Duration{}
	n.Register("dst:1", func(p *Packet) { got[p.Payload] = clock.Now() })
	want := map[any]time.Duration{}
	for _, s := range []struct {
		from string
		at   time.Duration
	}{{"far", 0}, {"near", time.Millisecond}} {
		// No queue anywhere: the uplink, the route and the downlink each
		// take the packet the moment it reaches them.
		want[s.from] = s.at + durationFromSeconds(bits/kbpsToBitsPerSec(lan.UpKbps)) + lan.BaseDelay +
			routes.Route(s.from, "dst").OneWayDelay +
			durationFromSeconds(bits/kbpsToBitsPerSec(modem.DownKbps)) + modem.BaseDelay
		clock.AtHandler(s.at, fireFunc(func(time.Duration) {
			n.Send(leased(n, Packet{From: Addr(s.from + ":9"), To: "dst:1", Size: size, Payload: s.from}))
		}))
	}
	fab.Run(nil)
	if want["near"] >= want["far"] {
		t.Fatalf("the near packet arrives at %v, not before the far one at %v", want["near"], want["far"])
	}
	for from, at := range want {
		if got[from] != at {
			t.Errorf("packet from %s delivered at %v, want %v: it waited on the downlink beyond its own transmission time", from, got[from], at)
		}
	}
	if _, delivered, dropped := fab.Stats(); delivered != 2 || dropped != 0 {
		t.Fatalf("delivered %d, dropped %d; want both packets delivered", delivered, dropped)
	}
}

// fireFunc adapts a func to simclock.EventHandler for control-event tests.
type fireFunc func(time.Duration)

func (f fireFunc) Fire(now time.Duration) { f(now) }

// TestFabricDrainShrinksOutboxes pins drain's memory bound: an outbox that
// ballooned past outboxRetainCap during one burst window must drop its
// backing array once drained, while a normally-sized outbox keeps its
// backing for reuse. Without the cut, one flash-crowd window would pin its
// high-water mark in memory for the rest of the run — per (src, dst) pair.
func TestFabricDrainShrinksOutboxes(t *testing.T) {
	fab := fabricRig(2, Route{OneWayDelay: 100 * time.Millisecond})
	fired := 0
	count := fireFunc(func(time.Duration) { fired++ })

	small := outboxRetainCap / 4
	for i := 0; i < small; i++ {
		fab.Post(0, 1, fab.lookahead, count)
	}
	fab.drain()
	if box := fab.out[0][1]; box == nil || len(box) != 0 || cap(box) < small {
		t.Fatalf("drain dropped a small outbox's backing (len %d, cap %d): reuse lost", len(box), cap(box))
	}

	burst := outboxRetainCap + 50
	for i := 0; i < burst; i++ {
		fab.Post(0, 1, fab.lookahead, count)
	}
	if cap(fab.out[0][1]) <= outboxRetainCap {
		t.Fatalf("burst of %d did not outgrow retain cap %d; the shrink path went unexercised", burst, outboxRetainCap)
	}
	fab.drain()
	if box := fab.out[0][1]; box != nil {
		t.Fatalf("drain kept an oversized outbox backing (cap %d > %d)", cap(box), outboxRetainCap)
	}

	// The shrink must not cost messages: every posted event still fires.
	fab.Run(nil)
	if want := small + burst; fired != want {
		t.Fatalf("%d of %d drained control events fired", fired, want)
	}
}

// TestFabricPostLookaheadViolation pins Post's safety check: a control
// event timestamped below the source shard's now+L could land inside a
// horizon the destination shard is already executing, so Post must refuse
// it loudly. The boundary itself (exactly now+L) is legal — it is the
// soonest any cross-shard effect may occur.
func TestFabricPostLookaheadViolation(t *testing.T) {
	fab := fabricRig(2, Route{OneWayDelay: 100 * time.Millisecond})
	fab.Post(0, 1, fab.lookahead, fireFunc(func(time.Duration) {})) // boundary: legal
	defer func() {
		if recover() == nil {
			t.Fatal("Post below the lookahead horizon did not panic")
		}
	}()
	fab.Post(0, 1, fab.lookahead-time.Nanosecond, fireFunc(func(time.Duration) {}))
}

// explodingHandler is the packet handler the panic test registers; the
// test looks for its name in the re-raised stack.
func explodingHandler(*Packet) { panic("handler exploded") }

// TestFabricWorkerPanicReraised pins the failure path of the window
// barrier: a panic inside a shard event must surface as a panic from Run on
// the control goroutine — as a ShardPanic carrying the original value, the
// shard it happened on and the stack of the event that raised it — rather
// than crash a worker goroutine and deadlock the remaining shards at the
// barrier. Shard 0 runs on the control goroutine itself and must take the
// same path: the other shards finish their window before Run panics.
func TestFabricWorkerPanicReraised(t *testing.T) {
	for _, tc := range []struct {
		shard    int
		from, to Addr
	}{
		{shard: 0, from: "b:9", to: "a:1"},
		{shard: 1, from: "a:9", to: "b:1"},
	} {
		t.Run(fmt.Sprintf("shard=%d", tc.shard), func(t *testing.T) {
			fab := fabricRig(2, Route{OneWayDelay: 100 * time.Millisecond})
			fab.Net(tc.shard).Register(tc.to, explodingHandler)
			// The other shard has work in the same window, which it must be
			// allowed to finish.
			other, finished := 1-tc.shard, false
			fab.Clock(other).AtHandler(100*time.Millisecond, fireFunc(func(time.Duration) { finished = true }))
			fab.Net(other).Send(leased(fab.Net(other), Packet{From: tc.from, To: tc.to, Size: 100, Payload: "x"}))
			done := make(chan any, 1)
			go func() {
				defer func() { done <- recover() }()
				fab.Run(nil)
			}()
			select {
			case got := <-done:
				p, ok := got.(ShardPanic)
				if !ok {
					t.Fatalf("Run panicked with %T %v, want a ShardPanic", got, got)
				}
				if p.Value != "handler exploded" || p.Shard != tc.shard {
					t.Errorf("ShardPanic{Shard: %d, Value: %v}, want shard %d and the handler's own panic value", p.Shard, p.Value, tc.shard)
				}
				if !strings.Contains(string(p.Stack), "explodingHandler") {
					t.Errorf("stack does not name the handler that panicked:\n%s", p.Stack)
				}
				for _, want := range []string{fmt.Sprintf("shard %d", tc.shard), "handler exploded", "explodingHandler"} {
					if !strings.Contains(p.Error(), want) || p.String() != p.Error() {
						t.Errorf("Error()/String() do not print %q:\n%s", want, p.Error())
					}
				}
				if !finished {
					t.Error("the healthy shard's window was torn by the other shard's panic")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Run neither returned nor panicked: the barrier deadlocked on the dead worker")
			}
		})
	}
}

// TestFabricShardCountInvariance pins the fabric's determinism contract at
// the packet level: on a lossy, jittery route, per-packet delivery times
// are identical whether the two hosts share a shard or not.
func TestFabricShardCountInvariance(t *testing.T) {
	route := Route{OneWayDelay: 60 * time.Millisecond, LossRate: 0.2, Jitter: 5 * time.Millisecond, CapacityKbps: 500}
	times := func(shards int) []time.Duration {
		fab := fabricRig(shards, route)
		var out []time.Duration
		fab.Net(shards-1).Register("b:1", func(*Packet) {
			out = append(out, fab.Clock(shards-1).Now())
		})
		for i := 0; i < 200; i++ {
			i := i
			fab.Clock(0).AfterHandler(time.Duration(i)*5*time.Millisecond, fireFunc(func(time.Duration) {
				fab.Net(0).Send(leased(fab.Net(0), Packet{From: "a:9", To: "b:1", Size: 400, Payload: "x"}))
			}))
		}
		fab.Run(nil)
		return out
	}
	one, two := times(1), times(2)
	if len(one) == 0 || len(one) == 200 {
		t.Fatalf("degenerate loss outcome: %d of 200 delivered", len(one))
	}
	if len(one) != len(two) {
		t.Fatalf("loss pattern depends on shard count: %d vs %d delivered", len(one), len(two))
	}
	for i := range one {
		if one[i] != two[i] {
			t.Fatalf("delivery %d at %v on one shard, %v on two", i, one[i], two[i])
		}
	}
}
