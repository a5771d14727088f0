package transport

import (
	"fmt"

	"realtracer/internal/netsim"
	"realtracer/internal/seqwin"
	"realtracer/internal/simclock"
	"realtracer/internal/snap"
)

// Checkpoint/restore for the simulated transports. Two things make this
// layer subtle:
//
//   - A *tcpSeg on the wire is usually the SAME object as the entry in the
//     sender's send buffer. Retransmits mutate ts/rexmit on that shared
//     object, and the mutation is visible to copies already in flight — the
//     reference behavior a restore must reproduce. Wire segments still in a
//     live conn's send buffer are therefore serialized as references (conn
//     local address + seq) and resolved against the restored conn's own
//     segment; only orphaned segments (handshakes, acknowledged ones, closed
//     conns) serialize by value. A segment's holder count is not serialized:
//     decoding gives each restored segment one holder per place it is
//     restored into (transit.go).
//
//   - The send buffer is one window split by a cursor the snapshot does not
//     name. It walks as the two runs it always has — the unsent [sndNxt,
//     nextSeq) as a counted sequence of segments, then the flight [sendBase,
//     sndNxt) as (seq, segment) pairs — and decoding puts the cursor where the
//     counts say, refusing runs that are not consecutive, not adjacent or do
//     not end at nextSeq.
//
//   - The RTO timer's handler is the conn itself (pooled event discipline),
//     so each conn walks its timer as (At, seq) and re-arms it with the
//     original sequence number on restore.
//
//   - A dial in flight belongs to the stack that issued it, not to whoever
//     asked for it: the stack walks the dialing conn and the dial's three
//     timers, and the caller — if it is still waiting — persists the dial's
//     local address and hands its continuation back with ReattachDial.
//
// Application payloads nested in segments and datagrams are opaque here; the
// session layer supplies the AppSync.

func init() {
	simclock.RegisterEventKind("transport.tcp-rto", &simTCP{})
	simclock.RegisterEventKind("transport.dial-timeout", (*dialTimeoutArm)(nil))
	simclock.RegisterEventKind("transport.dial-retry", (*dialRetryArm)(nil))
}

// AppSync walks one application payload carried inside a transport frame
// (RTSP messages, RDT packets, data hellos): it encodes *payload, or decodes
// into it. nil payloads are handled by the transport layer before the walk
// is consulted.
type AppSync func(c *snap.Codec, payload *any)

// SnapCtx is the per-world context every conn and packet walk shares: the
// application-payload walk, and — filled while decoding — an index of
// restored simulated TCP conns by local address, so wire segment references
// can resolve to the owning conn's live segment. One per checkpoint or
// restore.
type SnapCtx struct {
	app   AppSync
	conns map[netsim.Addr]*simTCP
}

// NewSnapCtx returns a context whose application payloads walk through app.
func NewSnapCtx(app AppSync) *SnapCtx {
	return &SnapCtx{app: app, conns: make(map[netsim.Addr]*simTCP)}
}

// Payload type tags in the snapshot.
const (
	payNil    = 0
	paySeg    = 1
	payAck    = 2
	payApp    = 3
	paySegRef = 4
)

// payloadTag classifies an in-flight packet payload for encoding.
func payloadTag(payload any) uint8 {
	switch m := payload.(type) {
	case nil:
		return payNil
	case *tcpSeg:
		// Reference only segments a conn still owns: an open sender may
		// mutate a segment in its send buffer while a wire copy is mid-hop, so
		// the copy must restore as the same object. A closed conn (torn-down
		// session — possibly absent from the snapshot entirely) owns nothing;
		// its wire copies encode by value.
		if c := m.conn; c != nil && c.ownsSeg(m) {
			return paySegRef
		}
		return paySeg
	case *tcpAck:
		return payAck
	default:
		return payApp
	}
}

// PayloadSync is the netsim payload walk for this world's in-flight packets:
// transport frames are handled here, anything else delegates to the
// application walk. Decoding resolves segment references against the conns
// already restored through x.
func (x *SnapCtx) PayloadSync(c *snap.Codec, payload *any) {
	tag := payloadTag(*payload)
	c.U8(&tag)
	if c.Err() != nil {
		return
	}
	switch tag {
	case payNil:
	case paySegRef:
		var laddr netsim.Addr
		var seq uint64
		if seg, ok := (*payload).(*tcpSeg); ok {
			laddr, seq = seg.conn.local.addr, seg.seq
		}
		snap.StrAs(c, &laddr)
		c.U64(&seq)
		if c.Reading() && c.Err() == nil {
			*payload = x.resolve(c, laddr, seq)
		}
	case paySeg:
		if c.Reading() {
			*payload = &tcpSeg{holds: 1} // an orphan: free-standing, no owning conn, the wire its one holder
		}
		(*payload).(*tcpSeg).sync(c, x.app)
	case payAck:
		if c.Reading() {
			*payload = &tcpAck{}
		}
		a := (*payload).(*tcpAck)
		c.U64(&a.cumAck)
		c.Dur(&a.ts)
		c.Bool(&a.echoOK)
	case payApp:
		x.app(c, payload)
	default:
		c.Fail(fmt.Errorf("transport: unknown payload tag %d", tag))
	}
}

// resolve turns a decoded (conn, seq) wire reference into the restored
// conn's live segment, failing the codec when the snapshot holds no such
// segment.
func (x *SnapCtx) resolve(c *snap.Codec, laddr netsim.Addr, seq uint64) any {
	conn := x.conns[laddr]
	if conn == nil {
		c.Fail(fmt.Errorf("transport: wire segment references unknown conn %s", laddr))
		return nil
	}
	seg := conn.send.Get(seq)
	if seg == nil {
		c.Fail(fmt.Errorf("transport: wire segment references conn %s seq %d, which holds no such segment", laddr, seq))
		return nil
	}
	seg.holds++
	return seg
}

// ownsSeg reports whether seg is live sender-side state of c: in its send
// buffer. Wire copies of owned segments encode by reference to preserve
// shared-mutation semantics. A handshake or FIN segment has a seq of zero and
// is not the data segment under it.
func (c *simTCP) ownsSeg(seg *tcpSeg) bool { return c.send.Get(seg.seq) == seg }

// sync walks one segment by value.
func (seg *tcpSeg) sync(c *snap.Codec, app AppSync) {
	var flags uint8
	for i, on := range [...]bool{seg.syn, seg.synAck, seg.fin, seg.rexmit} {
		if on {
			flags |= 1 << i
		}
	}
	c.U8(&flags)
	seg.syn, seg.synAck, seg.fin, seg.rexmit = flags&1 != 0, flags&2 != 0, flags&4 != 0, flags&8 != 0
	c.U64(&seg.seq)
	c.Int(&seg.size)
	c.Dur(&seg.ts)
	has := seg.payload != nil
	c.Bool(&has)
	if has {
		app(c, &seg.payload)
	}
}

// Sync walks the stack's own state: the ephemeral port cursor and the dials
// in flight, each as its dialing conn plus its timers. Decoded dials carry no
// continuation until their owner calls ReattachDial. The ACK, segment and
// conn-storage free-lists are pure allocation caches and are not part of the
// snapshot.
func (s *Stack) Sync(c *snap.Codec, x *SnapCtx) {
	c.Tag("stack")
	c.Int(&s.next)
	snap.Slice(c, &s.dials, func(c *snap.Codec, dp **tcpDial) {
		if c.Reading() {
			*dp = &tcpDial{}
		}
		d := *dp
		// A host that departs mid-handshake takes the dialing conn's packet
		// handler with it, while the dial's timers tick on — through a
		// re-arrival under the same name, if one comes. The conn restores as
		// deaf as it was.
		deaf := !c.Reading() && !s.net.Registered(d.conn.local.addr)
		c.Bool(&deaf)
		if tc := s.syncTCP(c, d.conn, x, !deaf); tc != nil {
			d.conn = tc
			tc.dial = d
		}
		if c.Err() != nil {
			return
		}
		s.clock.SyncTimer(c, &d.timeout, (*dialTimeoutArm)(d))
		for i := range d.retries {
			s.clock.SyncTimer(c, &d.retries[i], (*dialRetryArm)(d))
		}
	})
}

// ReattachDial gives a dial restored by Sync its continuation back: laddr is
// what DialTCP returned when the dial was issued. A restored dial nobody
// re-attaches stays abandoned (see tcpDial.cb).
func (s *Stack) ReattachDial(laddr string, cb func(Conn, error)) error {
	for _, d := range s.dials {
		if string(d.conn.local.addr) != laddr {
			continue
		}
		if d.cb != nil {
			return fmt.Errorf("transport: dial from %s re-attached twice", laddr)
		}
		d.cb = cb
		return nil
	}
	return fmt.Errorf("transport: snapshot holds no in-flight dial from %s", laddr)
}

// RestoreAccepted re-seeds a listener's SYN-dedup map with a restored
// server-side conn: a duplicate SYN still in flight from before the
// checkpoint must find the existing conn, exactly as it would have in the
// straight-through run. port is the listening port the conn was accepted on;
// conn must have been decoded by SyncConn.
func (s *Stack) RestoreAccepted(port int, conn Conn) error {
	tc, ok := conn.(*simTCP)
	if !ok {
		return fmt.Errorf("transport: RestoreAccepted with %T", conn)
	}
	l := s.listeners[port]
	if l == nil {
		return fmt.Errorf("transport: RestoreAccepted on port %d with no listener", port)
	}
	l.seen[tc.peer.addr] = tc
	tc.accepted = l
	return nil
}

// ConnClosed reports whether a simulated conn has been closed (locally or by
// a received FIN). Owners use it to prune dead conns from their checkpoint
// walks; unknown conn types report open.
func ConnClosed(c Conn) bool {
	switch m := c.(type) {
	case *simTCP:
		return m.closed
	case *simUDP:
		return m.closed
	default:
		return false
	}
}

// Conn type tags.
const (
	connTCP = 1
	connUDP = 2
)

// SyncConn walks a simulated conn owned by a session or player. Supported
// types: *simTCP (TCP control/data conns) and *simUDP (client-side connected
// UDP). Server-side UDP conn views (UDPPort.ConnFor) carry no state and are
// rebuilt by their owner instead.
//
// Decoding builds the conn on s, re-registering it with the network and (for
// TCP) into x; the owner re-installs its receiver afterwards, exactly as it
// did when the conn was first created. Encoding ignores s.
func SyncConn(c *snap.Codec, conn *Conn, s *Stack, x *SnapCtx) {
	var tag uint8
	switch (*conn).(type) {
	case *simTCP:
		tag = connTCP
	case *simUDP:
		tag = connUDP
	default:
		if !c.Reading() {
			c.Fail(fmt.Errorf("transport: cannot checkpoint conn type %T", *conn))
			return
		}
	}
	c.U8(&tag)
	if c.Err() != nil {
		return
	}
	switch tag {
	case connTCP:
		tc, _ := (*conn).(*simTCP)
		if tc = s.syncTCP(c, tc, x, true); tc != nil {
			*conn = tc
		}
	case connUDP:
		uc, _ := (*conn).(*simUDP)
		if uc = s.syncUDP(c, uc); uc != nil {
			*conn = uc
		}
	default:
		c.Fail(fmt.Errorf("transport: unknown conn tag %d", tag))
	}
}

// SyncOptConn walks a conn field that may be nil: a presence flag, then the
// conn.
func SyncOptConn(c *snap.Codec, conn *Conn, s *Stack, x *SnapCtx) {
	has := *conn != nil
	c.Bool(&has)
	if has {
		SyncConn(c, conn, s, x)
	}
}

// registrable reports whether an open conn decoded for laddr can re-register
// its packet handler — the host must be attached — failing the codec when it
// cannot. Register's own panic stays reserved for programmer misuse.
func (s *Stack) registrable(c *snap.Codec, laddr netsim.Addr) bool {
	if c.Err() != nil {
		return false
	}
	if !s.net.Attached(laddr.Host()) {
		c.Fail(fmt.Errorf("transport: snapshot conn %s is open on a host that is not attached", laddr))
		return false
	}
	return true
}

// syncUDP walks a client-side connected UDP conn; decoding (uc ignored)
// returns the rebuilt conn, or nil on failure.
func (s *Stack) syncUDP(c *snap.Codec, uc *simUDP) *simUDP {
	if c.Reading() {
		uc = &simUDP{stack: s}
	}
	snap.StrAs(c, &uc.local.addr)
	snap.StrAs(c, &uc.peer.addr)
	c.Bool(&uc.closed)
	if !c.Reading() || c.Err() != nil {
		return nil
	}
	uc.local, uc.peer = s.endpoint(uc.local.addr), s.endpoint(uc.peer.addr)
	if uc.closed {
		// Closed at checkpoint time: already unregistered in the live run,
		// and the host may be detached (a departed client) — the dead shell
		// is built without touching the network.
		return uc
	}
	if !s.registrable(c, uc.local.addr) {
		return nil
	}
	return s.newSimUDP(uc.local, uc.peer)
}

// syncTCP walks the full simTCP state; decoding (tc ignored) returns the
// rebuilt conn, or nil on failure. listening is whether a decoded open conn
// re-registers its packet handler: true for every conn but a dialing one
// whose host left (Stack.Sync).
func (s *Stack) syncTCP(c *snap.Codec, tc *simTCP, x *SnapCtx, listening bool) *simTCP {
	if c.Reading() {
		tc = &simTCP{} // scratch for the header; the real conn follows it
	}
	c.Tag("tcp")
	snap.StrAs(c, &tc.local.addr)
	snap.StrAs(c, &tc.peer.addr)
	c.Bool(&tc.established)
	c.Bool(&tc.closed)
	if c.Reading() {
		// A conn closed at checkpoint time was already unregistered from the
		// network — and for a departed open-loop client the host itself is
		// gone — so only open conns re-register their packet handler.
		listening = listening && !tc.closed
		if c.Err() != nil || (listening && !s.registrable(c, tc.local.addr)) {
			return nil
		}
		hdr := tc
		tc = newSimTCPConn(s, s.endpoint(hdr.local.addr), s.endpoint(hdr.peer.addr))
		tc.established, tc.closed = hdr.established, hdr.closed
		if listening {
			s.net.Register(tc.local.addr, tc.onPacket)
		}
	}

	c.U64(&tc.nextSeq)
	c.U64(&tc.sendBase)
	c.F64(&tc.cwnd)
	c.F64(&tc.ssthresh)
	c.Int(&tc.dupAcks)
	c.U64(&tc.lastAck)
	c.Dur(&tc.srtt)
	c.Dur(&tc.rttvar)
	c.Dur(&tc.rto)
	tc.stack.clock.SyncTimer(c, &tc.rtoTimer, tc)
	c.U64(&tc.rcvNext)
	// A closed conn walks through the same code as an open one: the backlog it
	// froze (teardown), then a send buffer and a reorder buffer that are empty.
	// A file that says otherwise would lease cells nobody releases.
	c.Int(&tc.depth)
	if c.Reading() && c.Err() == nil && tc.closed && tc.depth < 0 {
		c.Fail(fmt.Errorf("transport: conn %s is closed but holds a backlog of %d", tc.local.addr, tc.depth))
	}

	// Decoded segments are leased from the stack's pool and back-pointed to
	// the conn, like the originals, with the place they are decoded into —
	// send buffer or reorder buffer — as their one holder so far.
	ownSeg := func(c *snap.Codec, seg **tcpSeg) {
		if c.Reading() {
			if tc.closed {
				c.Fail(fmt.Errorf("transport: conn %s is closed but holds a segment", tc.local.addr))
				return
			}
			*seg = tc.newSeg()
			(*seg).holds = 1
		}
		(*seg).sync(c, x.app)
	}
	// run walks the n segments of the send buffer that end below hi, bare or —
	// as the window the flight used to be wrote them — each keyed by its seq,
	// and returns where they start. Decoding takes n from the file and wants
	// the run inside an open conn's unacknowledged range and consecutive.
	run := func(what string, hi uint64, n int, keyed bool) uint64 {
		c.Len(&n)
		lo := hi - uint64(n)
		if c.Reading() && c.Err() == nil && !tc.closed && (lo > hi || lo < tc.sendBase || n > seqwin.MaxSpan) {
			c.Fail(fmt.Errorf("transport: conn %s has %d segments %s below seq %d, more than its unacknowledged range [%d,%d) holds", tc.local.addr, n, what, hi, tc.sendBase, tc.nextSeq))
		}
		for seq := lo; seq != hi && c.Err() == nil; seq++ {
			key, seg := seq, tc.send.Get(seq)
			if keyed {
				c.U64(&key)
			}
			ownSeg(c, &seg)
			if !c.Reading() || c.Err() != nil {
				continue
			}
			if key != seq || seg.seq != seq {
				c.Fail(fmt.Errorf("transport: conn %s has seq %d %s where the run [%d,%d) wants seq %d", tc.local.addr, max(key, seg.seq), what, lo, hi, seq))
			}
			tc.send.Put(seq, seg)
		}
		return lo
	}
	// The unsent run ends at nextSeq and the flight at the cursor, which is
	// where the unsent run starts; a closed conn's buffer is empty (teardown),
	// so both its counts are zero whatever its counters say.
	flight := tc.flight()
	cursor := run("unsent", tc.nextSeq, tc.send.Len()-flight, false)
	base := run("in flight", cursor, flight, true)
	if c.Reading() && c.Err() == nil {
		tc.sndNxt = cursor
		if tc.closed {
			tc.sndNxt = tc.sendBase
		} else if base != tc.sendBase {
			c.Fail(fmt.Errorf("transport: conn %s has its flight start at seq %d, not at the %d it has acknowledged up to", tc.local.addr, base, tc.sendBase))
		}
	}
	tc.reorder.Sync(c, "reorder buffer", string(tc.local.addr), func(c *snap.Codec, seq *uint64, seg **tcpSeg) {
		c.U64(seq)
		ownSeg(c, seg)
		if c.Reading() && c.Err() == nil && *seq < tc.rcvNext {
			c.Fail(fmt.Errorf("transport: conn %s buffers seq %d below the %d it delivers next", tc.local.addr, *seq, tc.rcvNext))
		}
	})

	c.U64(&tc.retransmits)
	c.U64(&tc.fastRexmits)
	c.U64(&tc.timeouts)
	c.U64(&tc.segsSent)
	c.U64(&tc.segsDelivered)
	c.Int(&tc.consecutiveRTOs)
	if !c.Reading() || c.Err() != nil {
		return nil
	}
	// Closed conns enter the table too, and resolve nothing: a wire segment
	// naming one is refused as a reference to a segment the conn does not hold.
	x.conns[tc.local.addr] = tc
	return tc
}
