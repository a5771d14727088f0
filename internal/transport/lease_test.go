package transport

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"realtracer/internal/lease"
	"realtracer/internal/netsim"
	"realtracer/internal/simclock"
	"realtracer/internal/snap"
)

// TestTCPLateDuplicateSeesItsOwnSegment is the recycle-too-early hazard of
// the segment pool: a segment is lost to a stall, retransmitted on timeout
// and acknowledged, the sender goes on to send several pools' worth of new
// data — and only then does the first copy arrive. On the classic engine that
// copy is the sender's own segment object, so it must still be that segment:
// the receiver reads the old sequence number, drops a duplicate, delivers
// nothing twice and echoes in its ACK what the retransmission stamped on the
// shared object. Had the ACK that freed the sender's reference also freed the
// cell, the late copy would read whatever message reused it.
func TestTCPLateDuplicateSeesItsOwnSegment(t *testing.T) {
	clock, sa, sb := newPair(t, netsim.Route{OneWayDelay: 20 * time.Millisecond})
	tc := connOn(sb, "b:5000", "a:100")
	rc := newSimTCPConn(sa, sa.endpoint("a:100"), sa.endpoint("b:5000"))
	tc.established, rc.established = true, true
	var got []int
	rc.SetReceiver(func(payload any, _ int) { got = append(got, payload.(int)) })

	// The receiver's front door holds back the first copy of seq 0 — it
	// stays "in flight", reference and all — and lets everything else in.
	var late *tcpSeg
	var rexmitTS time.Duration
	sa.net.Register("a:100", func(pkt *netsim.Packet) {
		if seg, ok := pkt.Payload.(*tcpSeg); ok && seg.seq == 0 {
			if late == nil {
				late = seg
				return
			}
			rexmitTS = seg.ts
		}
		rc.onPacket(pkt)
	})
	// The sender's front door notes the last ACK on its way in.
	var lastAck tcpAck
	sb.net.Register("b:5000", func(pkt *netsim.Packet) {
		if a, ok := pkt.Payload.(*tcpAck); ok {
			lastAck = *a
		}
		tc.onPacket(pkt)
	})

	const rounds, more = 3, 3 * lease.Chunk
	tc.Send(0, 500)
	clock.RunUntil(2 * initialRTO) // stall, timeout, retransmission, ACK
	if late == nil || rexmitTS == 0 || tc.QueueDepth() != 0 {
		t.Fatalf("set-up: first copy held=%v, retransmitted at %v, sender backlog %d", late != nil, rexmitTS, tc.QueueDepth())
	}
	for i := 1; i <= more; i++ {
		tc.Send(i, 500)
		if i%(more/rounds) == 0 {
			clock.RunUntil(clock.Now() + 20*time.Second)
		}
	}
	if len(got) != more+1 || tc.QueueDepth() != 0 {
		t.Fatalf("delivered %d of %d messages, sender backlog %d", len(got), more+1, tc.QueueDepth())
	}
	if leased := sb.segs.Leased(); leased != 1 {
		t.Fatalf("%d segments on lease with one copy still in flight, want that one", leased)
	}
	if carved := sb.segs.Carved(); carved > more/rounds+1 {
		t.Errorf("sender carved %d segments for %d messages acknowledged %d at a time: cells are not being reused", carved, more+1, more/rounds)
	}

	// The first copy finally arrives.
	if late.seq != 0 || late.payload != 0 || late.conn != tc || !late.rexmit || late.ts != rexmitTS {
		t.Fatalf("the copy in flight no longer reads as seq 0: %+v", *late)
	}
	rc.onPacket(&netsim.Packet{From: "b:5000", To: "a:100", FromID: sb.hostID, FromPort: 5000, Payload: late})
	clock.RunUntil(clock.Now() + time.Second)
	if len(got) != more+1 || rc.segsDelivered != more+1 {
		t.Errorf("the late duplicate was delivered: %d messages, segsDelivered %d, want %d", len(got), rc.segsDelivered, more+1)
	}
	if lastAck.cumAck != more+1 || lastAck.ts != rexmitTS || lastAck.echoOK {
		t.Errorf("ACK for the late duplicate = {cumAck %d ts %v echoOK %v}, want {%d %v false}: the retransmission's stamp on the shared segment",
			lastAck.cumAck, lastAck.ts, lastAck.echoOK, more+1, rexmitTS)
	}
	if leased := sb.segs.Leased(); leased != 0 {
		t.Errorf("%d segments on lease after the last copy was dropped, want 0", leased)
	}
	if (*late != tcpSeg{}) {
		t.Errorf("the released segment reads %+v, want zero", *late)
	}
}

// TestSegmentSecondReleasePanics: a segment nobody holds is on the
// free-list, or leased to another message; releasing it must not pass.
func TestSegmentSecondReleasePanics(t *testing.T) {
	_, _, sb := newPair(t, netsim.Route{})
	tc := newSimTCPConn(sb, sb.endpoint("b:5000"), sb.endpoint("a:100"))
	seg := tc.newSeg()
	seg.holds = 1
	sb.net.ReleaseTransit(seg)
	defer func() {
		if recover() == nil {
			t.Error("releasing a segment twice did not panic")
		}
	}()
	sb.net.ReleaseTransit(seg)
}

// loadedPair builds two established conns that each hold all three things a
// conn can: ten messages go each way with the first copy of seq 0 lost on the
// way in (so 1..3 wait in the peer's reorder buffer) and every ACK lost on the
// way back (so the sender learns nothing: four in flight, six queued). It
// stops with nothing on the wire.
func loadedPair(t *testing.T) (clock *simclock.Clock, sa, sb *Stack, rc, tc *simTCP) {
	t.Helper()
	clock, sa, sb = newPair(t, netsim.Route{OneWayDelay: 20 * time.Millisecond})
	rc, tc = connOn(sa, "a:100", "b:5000"), connOn(sb, "b:5000", "a:100")
	for _, c := range []*simTCP{rc, tc} {
		c.established, c.cwnd = true, 4
		c.stack.net.Register(c.local.addr, func(pkt *netsim.Packet) {
			if seg, ok := pkt.Payload.(*tcpSeg); !ok || !seg.fin && seg.seq == 0 && !seg.rexmit {
				c.stack.net.ReleaseTransit(pkt.Payload)
				return
			}
			c.onPacket(pkt)
		})
	}
	for i := 0; i < 10; i++ {
		rc.Send(i, 500)
		tc.Send(i, 500)
	}
	clock.RunUntil(initialRTO / 2)
	for _, c := range []*simTCP{rc, tc} {
		if c.QueueDepth() != 10 || c.flight() != 4 || c.reorder.Len() != 3 || c.stack.segs.Leased() != 10 {
			t.Fatalf("set-up: %s has backlog %d, %d in flight, buffers %d, %d segments leased",
				c.local.addr, c.QueueDepth(), c.flight(), c.reorder.Len(), c.stack.segs.Leased())
		}
	}
	return clock, sa, sb, rc, tc
}

// TestTeardownReleasesWhatTheConnHolds: a closed conn holds nothing, whichever
// of the ways a conn ends closed it. Every route releases the sender's
// reference on what is queued and in flight and the segments waiting in the
// reorder buffer, there and then; QueueDepth, which a pacing server still
// reads, answers what it answered before; closing again does nothing. The last
// row closes from inside the receive callback with segments still buffered
// behind the one being delivered: that one is released by the delivery loop,
// the rest by teardown, none twice (a second release panics).
func TestTeardownReleasesWhatTheConnHolds(t *testing.T) {
	routes := []struct {
		name  string
		close func(tc, rc *simTCP)
	}{
		{"Close", func(tc, _ *simTCP) { tc.Close() }},
		{"peer FIN", func(tc, rc *simTCP) {
			fin := rc.newSeg()
			fin.fin, fin.holds = true, 1
			tc.onPacket(&netsim.Packet{From: rc.local.addr, To: tc.local.addr, FromID: rc.local.id, FromPort: rc.local.port, Payload: fin})
		}},
		{"RTO abort", func(tc, _ *simTCP) {
			tc.consecutiveRTOs = maxConsecutiveRTOs
			tc.onRTO()
		}},
		{"failed dial", func(tc, _ *simTCP) {
			tc.dial.conn = tc
			tc.stack.dials = append(tc.stack.dials, &tc.dial)
			tc.dial.finish(ErrTimeout)
		}},
		{"Close inside the receive callback", func(tc, rc *simTCP) {
			delivered := 0
			tc.SetReceiver(func(any, int) {
				delivered++
				tc.Close()
			})
			seg := rc.send.Get(0) // the retransmission of the lost seq 0 arrives
			seg.holds++
			tc.onPacket(&netsim.Packet{From: rc.local.addr, To: tc.local.addr, FromID: rc.local.id, FromPort: rc.local.port, Payload: seg})
			if delivered != 1 || tc.rcvNext != 1 {
				t.Errorf("%d messages delivered, next expected seq %d: want seq 0 alone, the conn having closed under 1..3", delivered, tc.rcvNext)
			}
		}},
	}
	for _, route := range routes {
		t.Run(route.name, func(t *testing.T) {
			clock, sa, sb, rc, tc := loadedPair(t)
			// Segments on the wire: a FIN, if the route sent one.
			wire := func() (n int) {
				for _, pe := range clock.Pendings() {
					if pkt, ok := pe.Handler.(*netsim.Packet); ok {
						if _, ok := pkt.Payload.(*tcpSeg); ok {
							n++
						}
					}
				}
				return n
			}
			route.close(tc, rc)
			if !tc.closed || tc.QueueDepth() != 10 {
				t.Fatalf("closed=%v, QueueDepth %d: want closed with the backlog of 10 it had", tc.closed, tc.QueueDepth())
			}
			if b, f, r := tc.send.Len(), tc.flight(), tc.reorder.Len(); b+f+r != 0 {
				t.Errorf("the closed conn still holds %d to send, counts %d in flight, buffers %d", b, f, r)
			}
			// Of what tc sent, only what the peer buffers is still out, and the
			// peer has its own ten back to itself.
			if got, want := sb.segs.Leased()+sa.segs.Leased(), 3+10+wire(); got != want {
				t.Errorf("%d segments on lease after the close, want %d", got, want)
			}
			rc.teardown()
			if got, want := sb.segs.Leased()+sa.segs.Leased(), wire(); got != want {
				t.Errorf("%d segments on lease with both ends closed, want the %d on the wire", got, want)
			}
			pending := clock.Pending()
			tc.Close()
			tc.teardown()
			if tc.QueueDepth() != 10 || clock.Pending() != pending {
				t.Errorf("closing again: QueueDepth %d, %d events pending (was %d)", tc.QueueDepth(), clock.Pending(), pending)
			}
			clock.Run()
			if a, b := sa.segs.Leased(), sb.segs.Leased(); a+b != 0 {
				t.Errorf("%d and %d segments on lease after the clock ran dry", a, b)
			}
		})
	}
}

// TestTeardownRecyclesConnStorage: a conn's send and reorder rings and its
// port — the packet handler netsim holds, bound once — outlive it on its
// stack's free-list, so a host that dials, talks and hangs up over and over —
// every open-loop client, every server — grows them and binds the handler
// once, and a dial's record is part of the conn. A cycle on warm stacks must
// cost at least the four allocations (two conns, two rings each) fewer than
// the same cycle with the free-lists emptied first, and no more than six: two
// conns, the server conn's address and the client's, the dial's continuation
// and what it captures — no handler closure, no dial record. What waits on a
// free-list is capacity and wiring alone: no slot of it still points at a
// segment that has since been leased to someone else, and no port at the conn
// that gave it up.
//
// A port outlives its conn, so it is a hazard the way a leased cell is: the
// last case closes a conn with a segment still on the wire to it, lets the
// host's next conn take the port, and wants the segment to find no handler at
// the old address — dropped and released, never seen by the new conn.
func TestTeardownRecyclesConnStorage(t *testing.T) {
	clock, sa, sb := newPair(t, netsim.Route{OneWayDelay: 20 * time.Millisecond})
	var srv Conn
	sa.Listen(554, func(c Conn) {
		srv = c
		c.SetReceiver(func(any, int) {})
	})
	dial := func() *simTCP {
		var cli Conn
		sb.DialTCP("a:554", func(c Conn, err error) { cli = c })
		clock.Run()
		if cli == nil {
			t.Fatal("dial failed")
		}
		return cli.(*simTCP)
	}
	cycle := func() {
		cli := dial()
		cli.SetReceiver(func(any, int) {})
		for i := 0; i < 24; i++ { // more than a slow-start window: a backlog queues and drains
			cli.Send(nil, 500)
			srv.Send(nil, 500)
		}
		clock.Run()
		cli.Close()
		clock.Run() // the FIN closes the server's side
	}
	cycle()
	steady := testing.AllocsPerRun(20, cycle)
	fresh := testing.AllocsPerRun(20, func() {
		sa.connFree, sb.connFree = nil, nil
		cycle()
	})
	t.Logf("allocations per dial-exchange-close cycle: %.0f on recycled storage, %.0f growing it afresh", steady, fresh)
	if fresh-steady < 4 {
		t.Errorf("a cycle allocates %.0f on recycled conn storage and %.0f without it: want both rings of both conns saved", steady, fresh)
	}
	if steady > 6 {
		t.Errorf("a cycle allocates %.0f on recycled conn storage, want at most 6: a conn binds a handler or a dial allocates its record again", steady)
	}
	for _, s := range []*Stack{sa, sb} {
		if len(s.connFree) != 1 || s.segs.Leased() != 0 {
			t.Fatalf("%s: %d conns' storage on the free-list with every conn closed, %d segments on lease; want 1 and 0", s.host, len(s.connFree), s.segs.Leased())
		}
		st := s.connFree[0]
		if len(st.send) == 0 || len(st.reorder) == 0 {
			t.Errorf("%s: the recycled storage is rings of %d and %d slots: the cycle did not use both", s.host, len(st.send), len(st.reorder))
		}
		for _, arr := range [][]*tcpSeg{st.send, st.reorder} {
			if i := slices.IndexFunc(arr, func(seg *tcpSeg) bool { return seg != nil }); i >= 0 {
				t.Errorf("%s: slot %d of a recycled array still points at a segment", s.host, i)
			}
		}
		if st.port == nil || st.port.conn != nil {
			t.Errorf("%s: the recycled port %+v is missing or still points at a conn", s.host, st.port)
		}
	}

	// The late segment: the server sends, and the client hangs up before it
	// lands.
	old := dial()
	port := old.port
	srv.Send("late", 500)
	old.Close()
	onWire := func(to netsim.Addr) (n int) {
		for _, pe := range clock.Pendings() {
			if pkt, ok := pe.Handler.(*netsim.Packet); ok && pkt.To == to {
				if seg, ok := pkt.Payload.(*tcpSeg); ok && seg.payload == "late" {
					n++
				}
			}
		}
		return n
	}
	if onWire(old.local.addr) != 1 {
		t.Fatalf("set-up: %d copies of the late segment on the wire to %s, want 1", onWire(old.local.addr), old.local.addr)
	}
	if old.port != nil || port.conn != nil {
		t.Fatalf("the closed conn keeps port %p, its port points at %p: want the port unbound and given up", old.port, port.conn)
	}
	// The next conn of the host takes the port and registers its handler at
	// the conn's own address.
	sb.DialTCP("a:554", func(Conn, error) {})
	next := port.conn
	if next == nil || next == old || next.port != port || len(sb.connFree) != 0 {
		t.Fatalf("the next dial did not take the closed conn's port (it points at %p, %d stores left)", next, len(sb.connFree))
	}
	got := 0
	next.SetReceiver(func(any, int) { got++ })
	_, _, dropped := sa.net.Stats()
	clock.Run()
	_, _, droppedAfter := sa.net.Stats()
	if got != 0 || next.reorder.Len() != 0 || next.rcvNext != 0 || next.segsDelivered != 0 {
		t.Errorf("the late segment reached the conn that took its port: %d delivered, %d buffered, next expected seq %d", got, next.reorder.Len(), next.rcvNext)
	}
	if droppedAfter == dropped || onWire(old.local.addr) != 0 {
		t.Errorf("the late segment was not dropped at the closed conn's address (%d drops before, %d after)", dropped, droppedAfter)
	}
	next.Close()
	clock.Run()
	for _, s := range []*Stack{sa, sb} {
		if n := s.segs.Leased(); n != 0 {
			t.Errorf("%s: %d segments on lease with every conn closed and the clock dry", s.host, n)
		}
	}
}

// intSync is the application walk of these tests' payloads: an int.
func intSync(c *snap.Codec, payload *any) {
	v, _ := (*payload).(int)
	c.Int(&v)
	*payload = v
}

// TestRestoreRebuildsSegmentHolds: holder counts are not in a snapshot, so a
// restore must give every segment it rebuilds one holder per place it is
// restored into — the sender's send buffer, and each reference on the
// wire (a wire segment of a live conn restores as a reference to the conn's
// own segment, so the two stay one object). The restored world then runs to
// the end with restored cells recycling: everything delivered once, in order,
// and both pools whole.
func TestRestoreRebuildsSegmentHolds(t *testing.T) {
	route := netsim.Route{OneWayDelay: 20 * time.Millisecond}
	// walk is the whole world's Sync in both directions: clock, network,
	// the two conns, then the packets that reference them.
	walk := func(c *snap.Codec, clock *simclock.Clock, sa, sb *Stack, rc, tc *Conn) {
		x := NewSnapCtx(intSync)
		clock.Sync(c)
		sa.net.Sync(c, false, nil, nil)
		SyncConn(c, rc, sa, x)
		SyncConn(c, tc, sb, x)
		sa.net.SyncPackets(c, x.PayloadSync)
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
	}

	clock, sa, sb := newPair(t, route)
	var rc, tc Conn = connOn(sa, "a:100", "b:5000"), connOn(sb, "b:5000", "a:100")
	rc.(*simTCP).established, tc.(*simTCP).established = true, true
	tc.(*simTCP).cwnd = 4
	for i := 0; i < 6; i++ {
		tc.Send(i, 500)
	}
	clock.RunUntil(5 * time.Millisecond) // four on the wire, two queued, nothing acknowledged
	var buf bytes.Buffer
	walk(snap.NewEncoder(&buf), clock, sa, sb, &rc, &tc)

	clock, sa, sb = newPair(t, route)
	rc, tc = nil, nil
	walk(snap.NewDecoder(buf.Bytes()), clock, sa, sb, &rc, &tc)
	sender := tc.(*simTCP)
	if sender.flight() != 4 || sender.send.Len() != 6 {
		t.Fatalf("restored sender has %d in flight of %d to send, want 4 of 6", sender.flight(), sender.send.Len())
	}
	for seq, seg := range sender.send.Each {
		if seq < sender.sndNxt && seg.holds != 2 {
			t.Errorf("restored segment %d in flight has %d holders, want the sender and its copy on the wire", seq, seg.holds)
		}
		if seq >= sender.sndNxt && seg.holds != 1 {
			t.Errorf("restored unsent segment %d has %d holders, want the sender alone", seg.seq, seg.holds)
		}
	}
	var got []int
	rc.SetReceiver(func(payload any, _ int) { got = append(got, payload.(int)) })
	clock.Run()
	if !slices.Equal(got, []int{0, 1, 2, 3, 4, 5}) {
		t.Errorf("the restored world delivered %v", got)
	}
	for _, s := range []*Stack{sa, sb} {
		if carved, leased := s.segs.Carved(), s.segs.Leased(); leased != 0 {
			t.Errorf("%s: %d of %d segments still on lease after the restored world drained", s.Host(), leased, carved)
		}
	}
}
