package transport

import (
	"strconv"
	"testing"
	"time"

	"realtracer/internal/netsim"
	"realtracer/internal/rdt"
	"realtracer/internal/rtsp"
	"realtracer/internal/simclock"
)

// msgRoute loses, delays and reorders enough that a control exchange over it
// has segments retransmitted, delivered twice and buffered out of order.
var msgRoute = netsim.Route{OneWayDelay: 20 * time.Millisecond, Jitter: 60 * time.Millisecond, LossRate: 0.12}

// msgMethods cycle over a run's requests.
var msgMethods = []string{rtsp.MethodDescribe, rtsp.MethodSetup, rtsp.MethodPlay, rtsp.MethodTeardown}

// msgEnd is one end of the control conn of a msgRig: the messages it leased
// from its arena, in order, and those it was handed, in order, as pointers.
// Each end is touched only by the shard that owns its host.
type msgEnd struct {
	arena  rdt.Arena
	conn   *simTCP
	leased []*rtsp.Message
	got    []*rtsp.Message
	cseqs  []int // the CSeq of each message got, read in the callback
	bad    []string
}

// msgRig is a client on "b" that sends requests over one TCP conn to a server
// on "a", which answers each; each end leases from an arena of its own.
// onLease and onRecv, when set, see each message leased (before it is
// recorded) and each message handed to a receiver (inside its callback).
type msgRig struct {
	cli, srv msgEnd
	onLease  func(m *rtsp.Message)
	onRecv   func(m *rtsp.Message)
}

func (r *msgRig) lease(e *msgEnd, m *rtsp.Message) {
	if r.onLease != nil {
		r.onLease(m)
	}
	e.leased = append(e.leased, m)
}

// recv is the receiver's part of the contract: it reads the message in its
// callback, and keeps copies, never the message.
func (r *msgRig) recv(e *msgEnd, m *rtsp.Message) {
	if r.onRecv != nil {
		r.onRecv(m)
	}
	e.got = append(e.got, m)
	e.cseqs = append(e.cseqs, m.CSeq)
}

// start listens on "a" and dials from "b"; once the conn is up the client
// sends n requests, three every 60 ms, and closes after the last reply.
func (r *msgRig) start(t *testing.T, clock *simclock.Clock, sa, sb *Stack, n int) {
	sa.Listen(554, func(c Conn) {
		r.srv.conn = c.(*simTCP)
		c.SetReceiver(func(payload any, _ int) {
			req := payload.(*rtsp.Message)
			if !req.Request || req.CSeq < 1 || req.Method != msgMethods[(req.CSeq-1)%len(msgMethods)] || req.URL != "rtsp://a/clip000.rm" {
				r.srv.bad = append(r.srv.bad, "request "+strconv.Itoa(req.CSeq)+" reads "+req.Method+" "+req.URL)
			}
			r.recv(&r.srv, req)
			resp := r.srv.arena.Messages().Response(req, rtsp.StatusOK)
			resp.Set("Session", "sess-"+strconv.Itoa(req.CSeq))
			r.lease(&r.srv, resp)
			c.Send(resp, resp.WireSize())
		})
	})
	sb.DialTCP("a:554", func(c Conn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		r.cli.conn = c.(*simTCP)
		c.SetReceiver(func(payload any, _ int) {
			resp := payload.(*rtsp.Message)
			if resp.Request || resp.Status != rtsp.StatusOK || resp.Get("Session") != "sess-"+strconv.Itoa(resp.CSeq) {
				r.cli.bad = append(r.cli.bad, "reply "+strconv.Itoa(resp.CSeq)+" reads "+resp.Reason+" "+resp.Get("Session"))
			}
			r.recv(&r.cli, resp)
			if len(r.cli.got) == n {
				c.Close()
			}
		})
		for i := range n {
			clock.AfterHandler(time.Duration(i/3)*60*time.Millisecond, fireFunc(func() {
				req := r.cli.arena.Messages().Request(msgMethods[i%len(msgMethods)], "rtsp://a/clip000.rm", i+1)
				r.lease(&r.cli, req)
				c.Send(req, req.WireSize())
			}))
		}
	})
}

// check is the end-of-run half of the fence: every request and reply was
// delivered once, in order, reading as what was sent, and every message is
// back in the arena that leased it.
func (r *msgRig) check(t *testing.T, n int) {
	t.Helper()
	for _, e := range []struct {
		name string
		end  *msgEnd
		sent int
	}{{"server", &r.srv, n}, {"client", &r.cli, n}} {
		for _, bad := range e.end.bad {
			t.Errorf("%s: %s", e.name, bad)
		}
		if len(e.end.cseqs) != e.sent {
			t.Errorf("%s: %d messages delivered, want %d", e.name, len(e.end.cseqs), e.sent)
		}
		for i, cseq := range e.end.cseqs {
			if cseq != i+1 {
				t.Errorf("%s: delivery %d carried CSeq %d, want %d", e.name, i, cseq, i+1)
				break
			}
		}
		if carved, leased := e.end.arena.Messages().Cells(); leased != 0 || carved == 0 || carved >= len(e.end.leased) {
			t.Errorf("%s: arena carved %d messages for %d leases and has %d on lease at quiescence, want some, fewer, and none",
				e.name, carved, len(e.end.leased), leased)
		}
		for _, m := range e.end.leased {
			if m.Method != "" || m.CSeq != 0 || m.Request || m.Status != 0 || m.Get("Session") != "" {
				t.Errorf("%s: a message still reads %+v at quiescence, want it released", e.name, *m)
				break
			}
		}
	}
}

// TestMessageLeasesOverLossyTCP: an RTSP message leased from an arena and
// handed to a simulated TCP conn goes back to that arena exactly once, and
// only when nothing reads it any more: after the receiver's callback has
// returned and the cumulative ACK has passed its segment, and after every
// copy of the segment on the wire — retransmissions, duplicates, one waiting
// in a reorder buffer — is gone. Each event of a lossy run is followed by the
// audit: a message the sender's buffer, a reorder buffer or the wire still
// carries, or whose receiver has not had it yet, reads as it was sent; one
// delivered and carried nowhere reads as zero, released; and a message's cell
// is leased again only once its last occupant is both. At quiescence both
// arenas have nothing on lease (a second release would have panicked).
func TestMessageLeasesOverLossyTCP(t *testing.T) {
	const n = 300
	clock, sa, sb := newPair(t, msgRoute)
	r := &msgRig{}

	type book struct {
		method    string
		cseq      int
		delivered bool
	}
	books := map[*rtsp.Message]*book{}
	// carried is every message a sender's buffer, a reorder buffer or the
	// wire holds now, with how many places hold it.
	carried := func() map[*rtsp.Message]int {
		held := map[*rtsp.Message]int{}
		add := func(seg *tcpSeg) {
			if m, ok := seg.payload.(*rtsp.Message); ok {
				held[m]++
			}
		}
		for _, c := range []*simTCP{r.srv.conn, r.cli.conn} {
			if c == nil {
				continue
			}
			for _, seg := range c.send.Each {
				add(seg)
			}
			for _, seg := range c.reorder.Each {
				add(seg)
			}
		}
		for _, pe := range clock.Pendings() {
			if pkt, ok := pe.Handler.(*netsim.Packet); ok {
				if seg, ok := pkt.Payload.(*tcpSeg); ok {
					add(seg)
				}
			}
		}
		return held
	}
	intact := func(m *rtsp.Message, b *book) bool {
		if m.Request {
			return m.Method == b.method && m.CSeq == b.cseq
		}
		return m.Status == rtsp.StatusOK && m.CSeq == b.cseq
	}
	r.onLease = func(m *rtsp.Message) {
		if old, ok := books[m]; ok {
			if !old.delivered {
				t.Fatalf("CSeq %d's cell was leased again before its receiver had it", old.cseq)
			}
			if carried()[m] > 0 {
				t.Fatalf("CSeq %d's cell was leased again while a segment still carries it", old.cseq)
			}
		}
		b := &book{method: m.Method, cseq: m.CSeq}
		if !m.Request {
			b.method = ""
		}
		books[m] = b
	}
	r.onRecv = func(m *rtsp.Message) {
		b, ok := books[m]
		if !ok || !intact(m, b) {
			t.Fatalf("a receiver was handed %+v, not a message on lease", *m)
		}
		b.delivered = true
	}

	// Count what the receive paths see: a segment arriving twice, or ahead of
	// one still missing.
	var dups, early int
	watch := func(c *simTCP) {
		c.stack.net.Register(c.local.addr, func(pkt *netsim.Packet) {
			if seg, ok := pkt.Payload.(*tcpSeg); ok && !seg.syn && !seg.synAck && !seg.fin && !c.closed {
				switch {
				case seg.seq < c.rcvNext || c.reorder.Get(seg.seq) != nil:
					dups++
				case seg.seq > c.rcvNext:
					early++
				}
			}
			c.onPacket(pkt)
		})
	}
	r.start(t, clock, sa, sb, n)
	watched := map[*simTCP]bool{}
	for clock.Step() {
		for _, c := range []*simTCP{r.srv.conn, r.cli.conn} {
			if c != nil && !c.closed && !watched[c] {
				watch(c)
				watched[c] = true
			}
		}
		held := carried()
		for m, b := range books {
			switch {
			case !b.delivered || held[m] > 0:
				if !intact(m, b) {
					t.Fatalf("CSeq %d reads %+v while its receiver has not had it or a segment carries it (%d places)", b.cseq, *m, held[m])
				}
			case m.CSeq != 0 || m.Request || m.Status != 0:
				t.Fatalf("CSeq %d reads %+v once delivered and carried nowhere, want it released", b.cseq, *m)
			}
		}
	}
	r.check(t, n)
	rx, _, _ := r.srv.conn.Counters()
	rxc, _, _ := r.cli.conn.Counters()
	t.Logf("%d retransmissions, %d duplicate and %d early arrivals", rx+rxc, dups, early)
	if rx+rxc == 0 || dups == 0 || early == 0 {
		t.Errorf("the run retransmitted %d segments, delivered %d twice and %d ahead of a gap: it exercised too little", rx+rxc, dups, early)
	}
}

// TestMessageCrossesShardsAsACopy is the two-shard arm: client and server on
// different shards, so every request and reply crosses the WAN edge. A
// receiver is handed the copy a sharded world takes there, never the
// message its peer leased, and each original goes back to the arena of the
// shard that sent it, on that shard: a release from the other shard's
// worker would be a reported race under -race.
func TestMessageCrossesShardsAsACopy(t *testing.T) {
	const n = 120
	fab := netsim.NewFabric(2, netsim.StaticRoute(msgRoute), 42)
	fab.AddHost(0, netsim.HostConfig{Name: "a", Access: netsim.DefaultAccessProfile(netsim.AccessServer)})
	fab.AddHost(1, netsim.HostConfig{Name: "b", Access: netsim.DefaultAccessProfile(netsim.AccessDSLCable)})
	fab.Freeze(msgRoute.OneWayDelay)
	r := &msgRig{}
	r.start(t, fab.Clock(1), NewStack(fab.Net(0), "a"), NewStack(fab.Net(1), "b"), n)
	fab.Run(nil)

	r.check(t, n)
	for _, e := range []struct {
		name       string
		recv, peer *msgEnd
	}{{"server", &r.srv, &r.cli}, {"client", &r.cli, &r.srv}} {
		originals := map[*rtsp.Message]bool{}
		for _, m := range e.peer.leased {
			originals[m] = true
		}
		for _, m := range e.recv.got {
			if originals[m] {
				t.Errorf("the %s was handed a message its peer leased, not a copy", e.name)
				break
			}
		}
	}
}
