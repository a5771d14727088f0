package netsim

import (
	"fmt"
	"time"

	"realtracer/internal/simclock"
	"realtracer/internal/snap"
)

// Checkpoint/restore for the network layer. The snapshot holds only what a
// rebuilt world cannot rederive: the interning table (ID order is
// load-bearing — persisted HostIDs and path-row indices stay valid only if the
// restored table assigns the same IDs), attached hosts' access configs and
// fluid-queue state, each path's dynamic fields (the route itself comes back
// from the RouteTable), every in-flight packet with its original (At, seq),
// and the draw counts of the two RNG streams. Packet payloads are opaque to
// netsim — the transport layer injects the payload walk.

// PayloadSync walks one opaque packet payload netsim carries by reference:
// it encodes *payload, or decodes into it. The transport layer provides the
// implementation; netsim cannot depend on it.
type PayloadSync func(c *snap.Codec, payload *any)

// pathEntry pairs an ordered host pair with its path state for the
// checkpoint walk.
type pathEntry struct {
	from, to HostID
	p        *pathState
}

// Sync walks the network's core dynamic state: RNG positions, counters, the
// interning table, attached hosts and path state. In-flight packets are
// walked separately by SyncPackets — their payloads may reference transport
// connections, which the world walks between the two calls so packet
// payload references can resolve against restored conns.
//
// Decoding overlays onto a freshly rebuilt network: the caller must already
// have rebuilt the static world (build-time hosts attached, the dynamics
// schedule reinstalled when the snapshot's options name one) and restored
// the clock; Sync re-interns the name table, re-attaches runtime hosts and
// overlays path and queue state. A snapshot whose dynamics disagree with the
// rebuilt network's fails: its per-path chain state would refer to another
// schedule.
//
// netFork and dynFork are the fork hooks of the base and dynamics streams
// (see detrand.Rand.Sync): nil replays the checkpointed position, non-nil
// restarts the stream at the seed the hook derives. A fork overrides no
// option, so the streams it restarts run the snapshot's own schedule.
func (n *Network) Sync(c *snap.Codec, netFork, dynFork func(seed int64, count uint64) int64) {
	if n.fab != nil {
		c.Fail(fmt.Errorf("netsim: sharded networks cannot be checkpointed"))
		return
	}
	c.Tag("netsim")
	// Restoring a path grows its source's row out to the destination ID: an
	// allocation sized by a field's value, not by the input's length. Like
	// RNG replay (snap.Codec.DrawCount) it is charged against a budget
	// proportional to the input from here on, names included — far above
	// what a real world holds (a 3,000-user panel has ~70k slots), far below
	// the names x paths a hostile list of (from, to) pairs could ask for.
	slots := 1<<20 + 16*c.Remaining()

	n.drng.Sync(c, netFork)
	hasDyn := n.dyn != nil
	c.Bool(&hasDyn)
	if c.Reading() && c.Err() == nil && hasDyn != (n.dyn != nil) {
		c.Fail(fmt.Errorf("netsim: restore dynamics mismatch: checkpoint has dynamics %v, rebuilt network %v (world rebuilt differently than checkpointed)", hasDyn, n.dyn != nil))
		return
	}
	if hasDyn {
		n.dyn.drng.Sync(c, dynFork)
	}
	c.U64(&n.sent)
	c.U64(&n.delivered)
	c.U64(&n.dropped)

	// Interning table, in ID order. Decoding replays it through Intern so a
	// rebuilt world's name->ID assignment matches the snapshot exactly.
	c.Tag("hosts")
	var names []string
	if !c.Reading() {
		names = n.names[1:]
	}
	snap.Slice(c, &names, (*snap.Codec).Str)
	if c.Reading() && c.Err() == nil {
		for i, name := range names {
			if id := n.Intern(name); id != HostID(i+1) {
				c.Fail(fmt.Errorf("netsim: restore interning mismatch: %q got ID %d, want %d (world rebuilt differently than checkpointed)", name, id, i+1))
				return
			}
		}
	}

	var hosts []*host // the attached ones, in ID order
	if !c.Reading() {
		for _, h := range n.hostTab {
			if h != nil {
				hosts = append(hosts, h)
			}
		}
	}
	snap.Slice(c, &hosts, func(c *snap.Codec, hp **host) {
		var id HostID
		var access AccessProfile
		if h := *hp; h != nil {
			id, access = h.id, h.cfg.Access
		}
		snap.I64As(c, &id)
		c.F64(&access.DownKbps)
		c.F64(&access.UpKbps)
		c.Dur(&access.QueueDelayMax)
		c.Dur(&access.BaseDelay)
		if c.Reading() {
			if *hp = n.restoreHost(c, id, access); *hp == nil {
				return
			}
		}
		c.Dur(&(*hp).upBusyUntil)
		c.Dur(&(*hp).downBusyUntil)
	})

	c.Tag("paths")
	var paths []pathEntry
	if !c.Reading() {
		// Rows iterate in (from, to) order, so the bytes are deterministic.
		n.forEachPath(func(from, to HostID, p *pathState) {
			paths = append(paths, pathEntry{from, to, p})
		})
	}
	now := n.Clock.Now()
	snap.Slice(c, &paths, func(c *snap.Codec, pe *pathEntry) {
		snap.I64As(c, &pe.from)
		snap.I64As(c, &pe.to)
		if c.Reading() {
			if c.Err() != nil {
				return
			}
			if n.lookupName(pe.from) == "" || n.lookupName(pe.to) == "" {
				c.Fail(fmt.Errorf("netsim: restore path (%d,%d) out of range", pe.from, pe.to))
				return
			}
			if grow := int(pe.to) + 1 - len(n.rows[pe.from]); grow > 0 {
				if slots -= grow; slots < 0 {
					c.Fail(fmt.Errorf("netsim: restore path table is larger than a snapshot of this size can justify"))
					return
				}
			}
			pe.p = n.path(pe.from, pe.to)
		}
		p := pe.p
		c.Dur(&p.busyUntil)
		// CongestionMean/Var can be overridden after path creation
		// (SetCongestionMean); everything else in the route is rederived
		// from the RouteTable.
		c.F64(&p.route.CongestionMean)
		c.F64(&p.route.CongestionVar)
		c.F64(&p.congestion)
		syncPast(c, &p.lastResample, now)

		// Dynamics-layer state decodes into scratch, checked before it is kept.
		var dyn pathState
		if !c.Reading() {
			dyn = *p
		}
		c.Bool(&dyn.dynMatched)
		snap.Slice(c, &dyn.dynEvents, (*snap.Codec).Int)
		snap.Slice(c, &dyn.ge, func(c *snap.Codec, g *geState) {
			c.Bool(&g.bad)
			syncPast(c, &g.last, now)
		})
		if !c.Reading() || n.dyn == nil || c.Err() != nil {
			return
		}
		for _, i := range dyn.dynEvents {
			if i < 0 || i >= len(n.dyn.compiled) {
				c.Fail(fmt.Errorf("netsim: restore path (%d,%d) references dynamics event %d of %d", pe.from, pe.to, i, len(n.dyn.compiled)))
				return
			}
		}
		if len(dyn.ge) != len(dyn.dynEvents) {
			c.Fail(fmt.Errorf("netsim: restore path (%d,%d) holds %d chain states for %d dynamics events", pe.from, pe.to, len(dyn.ge), len(dyn.dynEvents)))
			return
		}
		p.dynMatched, p.dynEvents, p.ge = dyn.dynMatched, dyn.dynEvents, dyn.ge
	})
}

// syncPast walks an instant that the simulation catches up to now in fixed
// steps (congestion resampling, loss-chain ticks). Decoding rejects a value
// outside [0, now]: a hostile one would turn the catch-up loop into a spin.
func syncPast(c *snap.Codec, t *time.Duration, now time.Duration) {
	c.Dur(t)
	if c.Reading() && c.Err() == nil && (*t < 0 || *t > now) {
		c.Fail(fmt.Errorf("netsim: restore instant %v outside [0, %v]", *t, now))
		*t = 0
	}
}

// lookupName returns the interned name for id, or "" when out of range.
func (n *Network) lookupName(id HostID) string {
	if id <= 0 || int(id) >= len(n.names) {
		return ""
	}
	return n.names[id]
}

// restoreHost resolves a decoded attached-host record: a host the rebuilt
// world already attached must carry the same access profile; a runtime host
// (an open-loop client attached after build) is re-attached. A record the
// network cannot hold fails the codec and returns nil.
func (n *Network) restoreHost(c *snap.Codec, id HostID, access AccessProfile) *host {
	if c.Err() != nil {
		return nil
	}
	name := n.lookupName(id)
	if name == "" {
		c.Fail(fmt.Errorf("netsim: restore host ID %d out of range", id))
		return nil
	}
	if h := n.lookup(id); h != nil {
		if h.cfg.Access != access {
			c.Fail(fmt.Errorf("netsim: restore host %q access profile mismatch", name))
			return nil
		}
		return h
	}
	// The link rates divide packet sizes on every send; the comparisons are
	// written so NaN fails them.
	if !(access.DownKbps > 0 && access.UpKbps > 0) || access.QueueDelayMax < 0 || access.BaseDelay < 0 {
		c.Fail(fmt.Errorf("netsim: restore host %q has an impossible access profile %+v", name, access))
		return nil
	}
	n.AddHost(HostConfig{Name: name, Access: access})
	return n.hostTab[id]
}

// SyncPackets walks every in-flight packet of this network with its
// scheduled (At, seq); see Sync for why this is a separate section. Decoding
// re-injects each packet, re-armed at its original slot. Call after the
// world's transport connections are restored: the payload walk may resolve
// segment references against them.
func (n *Network) SyncPackets(c *snap.Codec, payload PayloadSync) {
	c.Tag("packets")
	var pkts []simclock.PendingEvent
	if !c.Reading() {
		for _, pe := range n.Clock.Pendings() {
			if pkt, ok := pe.Handler.(*Packet); ok && pkt.net == n {
				pkts = append(pkts, pe)
			}
		}
	}
	count := len(pkts)
	c.Len(&count)
	for i := 0; i < count && c.Err() == nil; i++ {
		var pe simclock.PendingEvent
		var pkt *Packet
		if c.Reading() {
			pkt = n.Obtain()
			pkt.net = n
		} else {
			pe = pkts[i]
			pkt = pe.Handler.(*Packet)
		}
		n.Clock.SyncEvent(c, &pe)
		snap.StrAs(c, &pkt.From)
		snap.StrAs(c, &pkt.To)
		snap.I64As(c, &pkt.FromID)
		snap.I64As(c, &pkt.ToID)
		snap.I64As(c, &pkt.FromPort)
		snap.I64As(c, &pkt.ToPort)
		c.Int(&pkt.Size)
		payload(c, &pkt.Payload)
		if c.Reading() {
			n.Clock.Rearm(c, pe.At, pe.Seq, pkt)
			if c.Err() != nil {
				n.release(pkt)
			}
		}
	}
}
