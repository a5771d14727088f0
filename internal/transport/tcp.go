package transport

import (
	"time"

	"realtracer/internal/netsim"
	"realtracer/internal/seqwin"
	"realtracer/internal/simclock"
)

// simTCP is one direction-pair of a simulated TCP connection. Each message
// handed to Send becomes one segment (callers keep messages <= MSS, which
// all RTSP and RDT packets are). The implementation models the pieces of
// TCP that shape streaming performance:
//
//   - slow start and AIMD congestion avoidance (RFC 5681 shape)
//   - fast retransmit on 3 duplicate ACKs, with window halving
//   - retransmission timeout with exponential backoff and cwnd collapse
//   - strictly in-order delivery, so a loss stalls everything behind it
//     (head-of-line blocking — the cause of TCP's occasional jitter spikes)
//
// The sender keeps what TCP keeps: one send buffer of everything between
// snd.una (sendBase) and the next sequence to assign, and snd.nxt (sndNxt)
// within it. The buffer holds a segment until the cumulative ACK passes it or
// the conn closes; go-back-N is the cursor moving back.
//
// It deliberately omits byte-granularity sequence space, SACK, Nagle and
// flow-control negotiation; none of those change the study's observables.
type simTCP struct {
	stack *Stack
	local endpoint
	peer  endpoint // a dialing conn's is the listener until the SYN-ACK names the conn that answered

	established bool
	closed      bool
	depth       int          // QueueDepth as teardown froze it; read only once closed
	accepted    *tcpListener // the accept table an accepted conn is in until it closes
	recv        func(any, int)

	// Sender state, as TCP keeps it: one buffer holds every segment Send has
	// taken and no cumulative ACK has passed, [sendBase, nextSeq), and a cursor
	// splits it into the flight [sendBase, sndNxt) and what waits for the
	// window to open. A timeout moves the cursor back; no segment moves.
	nextSeq  uint64 // next sequence to assign
	sendBase uint64 // oldest unacked
	sndNxt   uint64 // next sequence to put on the wire
	send     seqwin.Window[*tcpSeg]
	cwnd     float64 // congestion window, segments
	ssthresh float64
	dupAcks  int

	// RTT estimation (Jacobson/Karels).
	srtt, rttvar time.Duration
	rto          time.Duration
	rtoTimer     simclock.Timer

	// Receiver state.
	rcvNext uint64
	reorder seqwin.Window[*tcpSeg] // arrived ahead of rcvNext

	// Counters for tests and diagnostics.
	retransmits     uint64
	fastRexmits     uint64
	timeouts        uint64
	segsDelivered   uint64
	consecutiveRTOs int

	// Cold wiring, kept out of the per-packet fields' cache lines.
	dial tcpDial  // the DialTCP still waiting on this conn's handshake, if dial.conn is set
	port *tcpPort // the storage's port, whose handler netsim reaches the conn by; nil once closed
}

// maxConsecutiveRTOs bounds retransmission attempts before the connection
// aborts (the peer is presumed gone).
const maxConsecutiveRTOs = 8

func newSimTCP(s *Stack, local, peer endpoint) *simTCP {
	c := newSimTCPConn(s, local, peer)
	c.register()
	return c
}

// newSimTCPConn builds the conn on storage a closed conn of the host left
// behind, or on a new port when there is none, without registering its
// packet handler: the restore path registers only a conn whose host is still
// attached (a dialing client may have departed).
func newSimTCPConn(s *Stack, local, peer endpoint) *simTCP {
	c := &simTCP{
		stack:    s,
		local:    local,
		peer:     peer,
		cwnd:     2,
		ssthresh: 64,
		rto:      initialRTO,
	}
	if k := len(s.connFree) - 1; k >= 0 {
		st := s.connFree[k]
		s.connFree[k] = tcpStore{}
		s.connFree = s.connFree[:k]
		c.send.Adopt(st.send)
		c.reorder.Adopt(st.reorder)
		c.port = st.port
	} else {
		c.port = new(tcpPort)
		c.port.handle = c.port.onPacket
	}
	return c
}

// register points the conn's port at it and installs the port's handler on
// the conn's address.
func (c *simTCP) register() {
	c.port.conn = c
	c.stack.net.Register(c.local.addr, c.port.handle)
}

// Conn interface.

func (c *simTCP) Send(payload any, size int) error {
	if c.closed {
		c.stack.net.ReleaseTransit(payload)
		return ErrClosed
	}
	if c.send.Len() >= seqwin.MaxSpan {
		// A full socket: one more and the window would make room by evicting
		// the oldest unacknowledged segment.
		c.stack.net.ReleaseTransit(payload)
		return ErrSendBufferFull
	}
	seg := c.newSeg()
	seg.seq, seg.payload, seg.size = c.nextSeq, payload, size
	seg.holds = 1 // the send buffer's, until the cumulative ACK passes it or the conn closes
	c.send.Put(c.nextSeq, seg)
	c.nextSeq++
	c.pump()
	return nil
}

// newSeg leases a zeroed segment from the stack's pool (transit.go has the
// other half of its life) and stamps it with the conn that sends it.
func (c *simTCP) newSeg() *tcpSeg {
	seg := c.stack.segs.Get()
	seg.conn = c
	return seg
}

func (c *simTCP) SetReceiver(fn func(any, int)) { c.recv = fn }

func (c *simTCP) Close() error {
	if c.closed {
		return nil
	}
	fin := c.newSeg()
	fin.fin = true
	c.sendRaw(fin, 0)
	c.teardown()
	return nil
}

// teardown is where every way a conn ends meets — Close, the peer's FIN, the
// RTO abort, a dial that timed out — and a closed conn holds nothing: it is
// off the clock, the network and the accept table of the listener that took
// it, and the send buffer's reference on every segment in it, sent or not, and
// the segments waiting in the reorder buffer are released here, by whoever
// closes. All that outlives the close is the backlog QueueDepth answered at
// that instant, frozen, because a server paces against a dead conn's
// QueueDepth until the session is reaped. When an application callback closes
// the conn from inside onSegment's delivery loop, the segment being delivered
// has already left the reorder buffer: the loop releases it, teardown what is
// still buffered behind it.
//
// The storage goes too: both rings, cleared of every segment pointer, and the
// port, unregistered and pointing at no conn, are left on the stack's
// free-list, where the host's next conn starts on them instead of growing its
// own. Tearing down a closed conn does nothing.
func (c *simTCP) teardown() {
	if c.closed {
		return
	}
	c.rtoTimer.Cancel()
	c.rtoTimer = simclock.Timer{}
	c.stack.net.Unregister(c.local.addr)
	c.port.conn = nil
	if l := c.accepted; l != nil && l.seen[c.peer.addr] == c {
		delete(l.seen, c.peer.addr)
	}
	c.depth = c.QueueDepth()
	c.closed = true
	for _, w := range []*seqwin.Window[*tcpSeg]{&c.send, &c.reorder} {
		for _, seg := range w.Each {
			c.stack.net.ReleaseTransit(seg)
		}
	}
	c.stack.connFree = append(c.stack.connFree, tcpStore{c.send.Yield(), c.reorder.Yield(), c.port})
	c.port = nil
	c.sndNxt = c.sendBase // nothing of a closed conn's is in flight
}

func (c *simTCP) Protocol() Protocol { return TCP }
func (c *simTCP) LocalAddr() string  { return string(c.local.addr) }
func (c *simTCP) RemoteAddr() string { return string(c.peer.addr) }
func (c *simTCP) RTT() time.Duration { return c.srtt }

// QueueDepth reports how many messages are waiting or in flight — the
// sender-side backlog a streaming server watches to detect that TCP cannot
// sustain the media rate.
func (c *simTCP) QueueDepth() int {
	if c.closed {
		return c.depth
	}
	return c.send.Len()
}

// flight is how many segments are on the wire or lost: [sendBase, sndNxt).
func (c *simTCP) flight() int { return int(c.sndNxt - c.sendBase) }

// pump transmits from the cursor while the congestion window allows.
func (c *simTCP) pump() {
	if !c.established || c.closed {
		return
	}
	limit := min(int(c.cwnd), rwndSegs)
	for c.sndNxt < c.nextSeq && c.flight() < limit {
		seg := c.send.Get(c.sndNxt)
		c.sndNxt++
		c.transmit(seg, false)
	}
}

func (c *simTCP) transmit(seg *tcpSeg, rexmit bool) {
	seg.ts = c.stack.clock.Now()
	seg.rexmit = seg.rexmit || rexmit
	if rexmit {
		c.retransmits++
	}
	c.sendRaw(seg, seg.size)
	c.armRTO()
}

// sendRaw puts one more reference to seg on the wire — taken before Send, which
// may drop and release synchronously. A handshake or FIN segment has no other.
func (c *simTCP) sendRaw(seg *tcpSeg, size int) {
	seg.holds++
	c.stack.sendPooled(c.local, c.peer, size+segHeader, seg)
}

// sendSyn and sendSynAck emit pooled handshake segments.
func (c *simTCP) sendSyn() {
	seg := c.newSeg()
	seg.syn = true
	c.sendRaw(seg, 0)
}

func (c *simTCP) sendSynAck() {
	seg := c.newSeg()
	seg.synAck = true
	c.sendRaw(seg, 0)
}

// Fire implements simclock.EventHandler: the conn itself is the RTO timer's
// handler, so re-arming the timer per ACK allocates nothing.
func (c *simTCP) Fire(time.Duration) { c.onRTO() }

func (c *simTCP) armRTO() {
	c.rtoTimer.Cancel()
	if c.flight() == 0 {
		c.rtoTimer = simclock.Timer{}
		return
	}
	c.rtoTimer = c.stack.clock.AfterHandler(c.rto, c)
}

func (c *simTCP) onRTO() {
	if c.closed || c.flight() == 0 {
		return
	}
	c.timeouts++
	c.consecutiveRTOs++
	if c.consecutiveRTOs > maxConsecutiveRTOs {
		// The peer is unreachable or gone; abort like a real TCP would
		// after exhausting its retries.
		c.teardown()
		return
	}
	// Collapse the window and go back N: a timeout usually means the whole
	// flight is gone, so the cursor returns to just past the oldest unacked
	// segment, which is retransmitted now; the rest of the old flight goes out
	// again, oldest first, as the ACK clock reopens the window.
	c.ssthresh = max(c.cwnd/2, 2)
	c.cwnd = 1
	c.dupAcks = 0
	c.rto = min(c.rto*2, maxRTO)
	for seq := c.sendBase + 1; seq < c.sndNxt; seq++ {
		c.send.Get(seq).rexmit = true // Karn: never RTT-sample these again
	}
	c.sndNxt = c.sendBase + 1
	c.transmit(c.send.Get(c.sendBase), true)
}

// onPacket handles every arrival addressed to this conn: segments from the
// peer and ACKs for our own segments. Whatever arrives is released on every
// exit, consumed or not (a closed conn consumes nothing).
func (c *simTCP) onPacket(pkt *netsim.Packet) {
	if !c.closed {
		switch m := pkt.Payload.(type) {
		case *tcpSeg:
			c.onSegment(m, pkt)
			return
		case *tcpAck:
			c.onAck(m)
		}
	}
	c.stack.net.ReleaseTransit(pkt.Payload)
}

func (c *simTCP) onSegment(seg *tcpSeg, pkt *netsim.Packet) {
	switch {
	case seg.synAck:
		// Our SYN was answered; the peer's data address is the SYN-ACK's
		// source (the listener accepted on an ephemeral port).
		c.peer = peerOf(pkt)
		c.established = true
		if c.dial.conn != nil {
			c.dial.finish(nil)
		}
		c.pump()
		c.stack.net.ReleaseTransit(seg)
		return
	case seg.syn:
		// Listeners handle SYNs; a connected socket ignores them.
		c.stack.net.ReleaseTransit(seg)
		return
	case seg.fin:
		// Peer closed: release our resources too, or an abandoned
		// server-side conn would retransmit into the void forever.
		c.teardown()
		c.stack.net.ReleaseTransit(seg)
		return
	}

	// Data segment: buffer, deliver in order, and ACK cumulatively. The ACK
	// echo fields are captured up front: once the segment is released (or
	// delivered — an application callback may itself send, re-leasing the
	// pooled cell), its fields are no longer ours to read.
	ackTS, ackEchoOK := seg.ts, !seg.rexmit
	// Old and duplicate segments are dropped — and released, as on every
	// exit of the receive path. A buffered one keeps the reference it arrived
	// with until it is delivered in order.
	if seg.seq >= c.rcvNext {
		if c.reorder.Get(seg.seq) == nil {
			c.reorder.Put(seg.seq, seg)
		} else {
			c.stack.net.ReleaseTransit(seg)
		}
	} else {
		c.stack.net.ReleaseTransit(seg)
	}
	for {
		next := c.reorder.Get(c.rcvNext)
		if next == nil {
			break
		}
		c.reorder.Delete(c.rcvNext)
		c.rcvNext++
		c.segsDelivered++
		if c.recv != nil {
			c.recv(next.payload, next.size)
		}
		// The application callback has consumed the payload synchronously
		// (the receiver contract in each payload package's transit.go): the
		// receiver is done with the segment, and with it the nested payload.
		c.stack.net.ReleaseTransit(next)
	}
	c.reorder.DropBelow(c.rcvNext) // nothing is left there; the window's edge keeps up
	ack := c.stack.getAck()
	ack.cumAck, ack.ts, ack.echoOK = c.rcvNext, ackTS, ackEchoOK
	c.stack.sendPooled(c.local, peerOf(pkt), ackSize, ack)
}

func (c *simTCP) onAck(a *tcpAck) {
	if a.cumAck > c.sendBase {
		// New data acknowledged: everything below the cumulative ACK leaves
		// the buffer and the sender lets go of it — sent or not, for after a
		// timeout the peer may acknowledge, out of what it had buffered, past
		// where the cursor went back to; the cursor then starts from there.
		acked := int(min(a.cumAck, c.sndNxt) - c.sendBase) // what left the flight
		for seq, cut := c.sendBase, min(a.cumAck, c.nextSeq); seq < cut; seq++ {
			c.stack.net.ReleaseTransit(c.send.Get(seq))
		}
		c.send.DropBelow(a.cumAck)
		c.sendBase = a.cumAck
		c.sndNxt = max(c.sndNxt, c.sendBase)
		c.dupAcks = 0
		c.consecutiveRTOs = 0
		// Karn's algorithm: only sample RTT from segments never
		// retransmitted.
		if a.echoOK && a.ts > 0 {
			c.sampleRTT(c.stack.clock.Now() - a.ts)
		} else if c.srtt > 0 {
			// Forward progress clears exponential RTO backoff even when the
			// ACK cannot be RTT-sampled.
			c.rto = clampRTO(c.srtt + 4*c.rttvar)
		}
		// Window growth: slow start below ssthresh, then AIMD.
		for i := 0; i < acked; i++ {
			if c.cwnd < c.ssthresh {
				c.cwnd++
			} else {
				c.cwnd += 1 / c.cwnd
			}
		}
		c.armRTO()
		c.pump()
		return
	}
	if a.cumAck == c.sendBase && c.flight() > 0 {
		c.dupAcks++
		if c.dupAcks == 3 {
			// Fast retransmit + multiplicative decrease.
			c.fastRexmits++
			c.ssthresh = max(c.cwnd/2, 2)
			c.cwnd = c.ssthresh
			c.transmit(c.send.Get(c.sendBase), true)
		}
	}
}

func (c *simTCP) sampleRTT(rtt time.Duration) {
	if rtt <= 0 {
		return
	}
	if c.srtt == 0 {
		c.srtt = rtt
		c.rttvar = rtt / 2
	} else {
		diff := c.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		c.rttvar = (3*c.rttvar + diff) / 4
		c.srtt = (7*c.srtt + rtt) / 8
	}
	c.rto = clampRTO(c.srtt + 4*c.rttvar)
}

func clampRTO(rto time.Duration) time.Duration { return min(max(rto, minRTO), maxRTO) }
