package transport

import "realtracer/internal/netsim"

// The release half of a segment's and an ACK's life, and their shard-transit
// snapshots (netsim.Transferable / TransitReleasable). One rule covers
// originals and copies (netsim/transit.go): whoever reads a payload last
// releases it, once per Send.
//
// An original segment counts its readers in holds: one for the conn's send
// buffer, from Send until the cumulative ACK passes it (onAck) — sent or not —
// or the conn closes (teardown: whoever closes releases); one per sendRaw,
// each copy on the wire, released by the network (a drop, or the WAN-edge snapshot of a
// sharded world) or by the receiving conn — which, on the classic engine,
// reads the live ts/rexmit of the very segment the sender retransmits, and
// whose reorder buffer simply keeps the reference a segment arrived with until
// it is delivered in order or the conn closes. The last release clears the
// segment, releases the payload nested in it and returns the cell to the
// free-list of the stack that sent it. A handshake or FIN segment has only the
// wire's reference; a segment restored by value from a snapshot (its conn was
// closed) has that one too and no pool to go back to. Releasing a segment
// nobody holds panics.
// Holder counts are not in a snapshot: a restore rebuilds them from who holds
// the restored segment — the conn's send buffer, its reorder buffer, each
// reference on the wire.
//
// An original ACK has one reader and goes back to origin.ackFree; one a
// snapshot restored has no origin and is collected.
//
// In a sharded world every packet payload is deep-copied at the WAN edge —
// value semantics standing in for real serialization — so no shard reads
// memory another shard mutates, and the original is released there, on the
// sending shard. The TCP wire types carry two pieces of sender-private state
// that must not travel: seg.conn (the sender's conn identity, which names the
// segment's home and is never read by the receive path) and ack.origin.
// Snapshots are leased from the sending shard's transit pool and released
// into the receiving shard's.

var (
	segTransitClass = netsim.RegisterTransitClass()
	ackTransitClass = netsim.RegisterTransitClass()
)

// TransitCopy implements netsim.Transferable. The nested payload is
// snapshotted recursively through the same pool.
func (s *tcpSeg) TransitCopy(tp *netsim.TransitPool) any {
	var cp *tcpSeg
	if v := tp.Get(segTransitClass); v != nil {
		cp = v.(*tcpSeg)
	} else {
		cp = &tcpSeg{}
	}
	*cp = *s
	cp.conn = nil
	cp.transit = true
	cp.payload = netsim.CopyPayload(tp, s.payload)
	return cp
}

// TransitRelease implements netsim.TransitReleasable: one reader of the
// segment is done. A copy has one reader; an original goes back to its pool,
// nested payload released, when the last of its holders lets go.
func (s *tcpSeg) TransitRelease(tp *netsim.TransitPool) {
	if !s.transit {
		if s.holds <= 0 {
			panic("transport: segment released twice")
		}
		if s.holds--; s.holds > 0 {
			return
		}
	}
	netsim.ReleaseTransit(tp, s.payload)
	if s.transit {
		s.transit, s.payload = false, nil
		tp.Put(segTransitClass, s)
	} else if c := s.conn; c != nil {
		c.stack.segs.Put(s)
	}
}

// TransitCopy implements netsim.Transferable.
func (a *tcpAck) TransitCopy(tp *netsim.TransitPool) any {
	var cp *tcpAck
	if v := tp.Get(ackTransitClass); v != nil {
		cp = v.(*tcpAck)
	} else {
		cp = &tcpAck{}
	}
	*cp = *a
	cp.origin, cp.leased = nil, false
	cp.transit = true
	return cp
}

// TransitRelease implements netsim.TransitReleasable: a copy goes to the
// receiving shard's pool, an original back to the stack that sent it.
func (a *tcpAck) TransitRelease(tp *netsim.TransitPool) {
	if a.transit {
		a.transit = false
		tp.Put(ackTransitClass, a)
		return
	}
	s := a.origin
	if s == nil {
		return
	}
	if !a.leased {
		panic("transport: ACK released twice")
	}
	a.leased = false
	if len(s.ackFree) < ackFreeMax {
		s.ackFree = append(s.ackFree, a)
	}
}
