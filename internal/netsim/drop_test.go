package netsim

import (
	"testing"
	"time"

	"realtracer/internal/simclock"
)

// dropPayload is a pooled payload that keeps the books the drop table audits.
// An original is what a caller hands to Send; a snapshot is the copy a
// sharded world takes of it at the WAN edge, leased from a transit pool.
type dropPayload struct {
	snapshot bool
	leased   bool // on lease: set when an original is offered or a snapshot taken, cleared by its one release
	books    *dropBooks
}

// dropBooks counts, per kind, the leases taken and ended, the releases of
// something not on lease (a second release), and — the rule that lets a
// sharded world pool originals at all — the originals released anywhere but
// inside their own Send, on the sending shard.
type dropBooks struct {
	originals, originalReleases int
	copies, fresh, copyReleases int
	doubles                     int
	inSend                      bool
	originalsOutsideSend        int
}

var dropPayloadClass = RegisterTransitClass()

func (p *dropPayload) TransitCopy(tp *TransitPool) any {
	c, _ := tp.Get(dropPayloadClass).(*dropPayload)
	if c == nil {
		c = new(dropPayload)
		p.books.fresh++
	}
	*c = dropPayload{snapshot: true, leased: true, books: p.books}
	p.books.copies++
	return c
}

func (p *dropPayload) TransitRelease(tp *TransitPool) {
	b := p.books
	switch {
	case !p.leased:
		b.doubles++
	case p.snapshot:
		p.leased = false
		b.copyReleases++
		tp.Put(dropPayloadClass, p)
	default:
		p.leased = false
		b.originalReleases++
		if !b.inSend {
			b.originalsOutsideSend++
		}
	}
}

// dropRig is one two-host world, "a" (a server) and "b", on either engine.
type dropRig struct {
	nets   []*Network // every shard; one entry on the classic engine
	a, b   *Network   // the networks that own "a" and "b"
	bClock *simclock.Clock
	run    func()
	books  dropBooks
}

func newDropRig(sharded bool, route Route, bAccess AccessClass, dyn *Dynamics) *dropRig {
	hostA := HostConfig{Name: "a", Access: DefaultAccessProfile(AccessServer)}
	hostB := HostConfig{Name: "b", Access: DefaultAccessProfile(bAccess)}
	r := &dropRig{}
	if sharded {
		fab := NewFabric(2, StaticRoute(route), 42)
		fab.AddHost(0, hostA)
		fab.AddHost(1, hostB)
		fab.Freeze(25 * time.Millisecond)
		fab.SetDynamics(dyn, 7)
		r.nets = []*Network{fab.Net(0), fab.Net(1)}
		r.bClock, r.run = fab.Clock(1), func() { fab.Run(nil) }
	} else {
		clock := simclock.New()
		n := New(clock, StaticRoute(route), 42)
		n.AddHost(hostA)
		n.AddHost(hostB)
		n.SetDynamics(dyn, 7)
		r.nets = []*Network{n}
		r.bClock, r.run = clock, clock.Run
	}
	r.a, r.b = r.nets[0], r.nets[len(r.nets)-1]
	// Whoever is handed a payload releases it once the handler is done with
	// it, as a transport does: the original on the classic engine, the
	// snapshot in a sharded world.
	receive := func(n *Network) Handler {
		return func(p *Packet) { n.ReleaseTransit(p.Payload) }
	}
	r.a.Register("a:9", receive(r.a))
	r.b.Register("b:1", receive(r.b))
	return r
}

// offer fills one pooled packet of size bytes to be sent from n.
func (r *dropRig) offer(n *Network, from, to Addr, size int) *Packet {
	pkt := n.Obtain()
	pkt.From, pkt.To, pkt.Size = from, to, size
	pkt.Payload = &dropPayload{leased: true, books: &r.books}
	r.books.originals++
	return pkt
}

func (r *dropRig) send(n *Network, from, to Addr, size, count int) {
	for i := 0; i < count; i++ {
		pkt := r.offer(n, from, to, size)
		r.books.inSend = true
		n.Send(pkt)
		r.books.inSend = false
	}
}

func (r *dropRig) freePackets() (total int) {
	for _, n := range r.nets {
		total += len(n.free)
	}
	return total
}

// TestEveryDropReleases is the conservation table for Network.drop, the one
// exit for packets the network will not deliver: one row per cause, on both
// engines. Whatever the cause, every packet offered is delivered or counted
// dropped, every pooled packet is back on a free-list, and every Send ended
// in exactly one release of the payload it was handed: the caller's original
// once — at the drop, at the WAN-edge copy, or after the handler returned —
// and a snapshot taken at the WAN edge (sharded worlds only) once, back into
// a transit pool. In a sharded world no original is released outside its own
// Send: whatever the receiving side releases is a copy.
func TestEveryDropReleases(t *testing.T) {
	const hour = time.Hour
	calm := Route{OneWayDelay: 100 * time.Millisecond}
	rows := []struct {
		name    string
		route   Route
		bAccess AccessClass
		dyn     *Dynamics
		// offer makes the sends; dropped of them must not be delivered, and
		// in a sharded world edge of them get as far as the WAN edge.
		offer         func(r *dropRig)
		dropped, edge int
		shardedOnly   bool
	}{
		{name: "unknown source", route: calm, bAccess: AccessT1LAN, dropped: 3, edge: 0,
			offer: func(r *dropRig) { r.send(r.a, "ghost:9", "b:1", 500, 3) }},
		// A shard cannot tell an unknown destination from a remote one until
		// forward looks for its owner, so the sharded drop is edge-side.
		{name: "unknown destination", route: calm, bAccess: AccessT1LAN, dropped: 3, edge: 3,
			offer: func(r *dropRig) { r.send(r.a, "a:9", "ghost:1", 500, 3) }},
		// 100 kB is 518 ms of a T1 uplink whose queue holds 250 ms.
		{name: "uplink overflow", route: calm, bAccess: AccessT1LAN, dropped: 3, edge: 1,
			offer: func(r *dropRig) { r.send(r.b, "b:1", "a:9", 100_000, 4) }},
		{name: "route loss", route: Route{OneWayDelay: calm.OneWayDelay, LossRate: 1}, bAccess: AccessT1LAN, dropped: 3, edge: 0,
			offer: func(r *dropRig) { r.send(r.a, "a:9", "b:1", 500, 3) }},
		{name: "dynamics outage", route: calm, bAccess: AccessT1LAN, dropped: 3, edge: 0,
			dyn:   NewDynamics().Outage("a", "b", 0, hour),
			offer: func(r *dropRig) { r.send(r.a, "a:9", "b:1", 500, 3) }},
		{name: "dynamics loss", route: calm, bAccess: AccessT1LAN, dropped: 3, edge: 0,
			dyn:   NewDynamics().Degrade("a", "b", 0, hour, 1-1e-12),
			offer: func(r *dropRig) { r.send(r.a, "a:9", "b:1", 500, 3) }},
		// 1 kB is 8 s of a 1 Kbps bottleneck whose queue holds 2 s.
		{name: "bottleneck overflow", route: Route{OneWayDelay: calm.OneWayDelay, CapacityKbps: 1}, bAccess: AccessT1LAN, dropped: 3, edge: 1,
			offer: func(r *dropRig) { r.send(r.a, "a:9", "b:1", 1000, 4) }},
		// 10 kB is 1.6 s of a modem downlink whose queue holds 1.2 s. The
		// classic engine finds out in Send, a shard in deliver's edge arm.
		{name: "downlink overflow", route: calm, bAccess: AccessModem, dropped: 3, edge: 4,
			offer: func(r *dropRig) { r.send(r.a, "a:9", "b:1", 10_000, 4) }},
		{name: "host detached before the edge", route: calm, bAccess: AccessModem, dropped: 3, edge: 3,
			offer: func(r *dropRig) {
				r.send(r.a, "a:9", "b:1", 500, 3)
				r.b.RemoveHost("b")
			}},
		// The packets reach the WAN edge near 102 ms and a modem's base delay
		// holds them another 90 ms: at 150 ms a shard's copy of each is past
		// the downlink and waiting for its final delivery.
		{name: "host detached after the edge", route: calm, bAccess: AccessModem, dropped: 3, edge: 3,
			offer: func(r *dropRig) {
				r.send(r.a, "a:9", "b:1", 500, 3)
				r.bClock.AtHandler(150*time.Millisecond, fireFunc(func(time.Duration) { r.b.RemoveHost("b") }))
			}},
		{name: "no listener", route: calm, bAccess: AccessT1LAN, dropped: 3, edge: 3,
			offer: func(r *dropRig) { r.send(r.a, "a:9", "b:7", 500, 3) }},
		{name: "forward to an unowned ID", route: calm, bAccess: AccessT1LAN, dropped: 3, edge: 3, shardedOnly: true,
			offer: func(r *dropRig) {
				for i := 0; i < 3; i++ {
					pkt := r.offer(r.a, "a:9", "b:1", 500)
					pkt.ToID = HostID(len(r.a.fab.shardOf)) // past every host the fabric assigned
					r.a.sent++                              // forward is Send's tail
					r.books.inSend = true
					r.a.forward(calm.OneWayDelay, pkt)
					r.books.inSend = false
				}
			}},
	}
	for _, row := range rows {
		for _, sharded := range []bool{false, true} {
			if row.shardedOnly && !sharded {
				continue
			}
			name := row.name + "/classic"
			if sharded {
				name = row.name + "/2 shards"
			}
			t.Run(name, func(t *testing.T) {
				r := newDropRig(sharded, row.route, row.bAccess, row.dyn)
				// Start from stocked free-lists, so "back where it started"
				// is not trivially "everything was allocated fresh".
				for _, n := range r.nets {
					var held []*Packet
					for i := 0; i < 8; i++ {
						held = append(held, n.Obtain())
					}
					for _, p := range held {
						n.release(p)
					}
				}
				start := r.freePackets()

				row.offer(r)
				r.run()

				var sent, delivered, dropped uint64
				transitFree := 0
				for _, n := range r.nets {
					s, d, dr := n.Stats()
					sent, delivered, dropped = sent+s, delivered+d, dropped+dr
					transitFree += n.transit.classLen(int(dropPayloadClass))
				}
				if sent != delivered+dropped || dropped != uint64(row.dropped) {
					t.Errorf("sent=%d delivered=%d dropped=%d, want sent = delivered + dropped with %d dropped", sent, delivered, dropped, row.dropped)
				}
				if got := r.freePackets(); got != start {
					t.Errorf("packet free-lists hold %d, started with %d", got, start)
				}
				wantCopies := 0
				if sharded {
					wantCopies = row.edge
				}
				b := r.books
				if b.originalReleases != b.originals || b.copies != wantCopies || b.copyReleases != wantCopies || transitFree != b.fresh || b.doubles != 0 {
					t.Errorf("payloads: %d originals offered, %d released; %d snapshots taken (%d fresh), %d released, %d on transit free-lists; %d second releases; want every original released once, %d snapshots taken and released, every fresh one on a free-list",
						b.originals, b.originalReleases, b.copies, b.fresh, b.copyReleases, transitFree, b.doubles, wantCopies)
				}
				if sharded && b.originalsOutsideSend != 0 {
					t.Errorf("%d originals were released outside their Send: in a sharded world the receiving side may only see copies", b.originalsOutsideSend)
				}
			})
		}
	}
}
