package transport

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"realtracer/internal/netsim"
	"realtracer/internal/seqwin"
	"realtracer/internal/simclock"
)

// refSender is the sender bookkeeping simTCP had before its send buffer was
// one window — a send queue with a head index, a flight set, and a timeout
// that shuffles one into the other — kept, without a network, as the oracle
// TestSendBufferMatchesQueueAndFlight replays scripts against.
type refSender struct {
	nextSeq, sendBase uint64
	queue             []*refSeg
	qhead             int
	flight            map[uint64]*refSeg
	cwnd, ssthresh    float64
	dupAcks, rtos     int
	held              int      // segments the sender has a hold on
	wire              []refSeg // what went on the wire, in order
}

type refSeg struct {
	seq    uint64
	rexmit bool
}

func (r *refSender) depth() int { return len(r.queue) - r.qhead + len(r.flight) }

func (r *refSender) send() {
	r.queue = append(r.queue, &refSeg{seq: r.nextSeq})
	r.nextSeq++
	r.held++
	r.pump()
}

func (r *refSender) pump() {
	for limit := min(int(r.cwnd), rwndSegs); r.qhead < len(r.queue) && len(r.flight) < limit; {
		seg := r.queue[r.qhead]
		r.qhead++
		if seg.seq < r.sendBase {
			r.held-- // requeued after a timeout but since acknowledged
			continue
		}
		r.transmit(seg, false)
	}
}

func (r *refSender) transmit(seg *refSeg, rexmit bool) {
	seg.rexmit = seg.rexmit || rexmit
	r.flight[seg.seq] = seg
	r.wire = append(r.wire, *seg)
}

func (r *refSender) ack(cum uint64) {
	switch {
	case cum > r.sendBase:
		acked := 0
		for seq := range r.flight {
			if seq < cum {
				delete(r.flight, seq)
				acked++
			}
		}
		r.held -= acked
		r.sendBase, r.dupAcks, r.rtos = cum, 0, 0
		for ; acked > 0; acked-- {
			if r.cwnd < r.ssthresh {
				r.cwnd++
			} else {
				r.cwnd += 1 / r.cwnd
			}
		}
		r.pump()
	case cum == r.sendBase && len(r.flight) > 0:
		if r.dupAcks++; r.dupAcks == 3 {
			r.ssthresh = max(r.cwnd/2, 2)
			r.cwnd = r.ssthresh
			r.transmit(r.flight[r.sendBase], true)
		}
	}
}

func (r *refSender) rto() {
	if len(r.flight) == 0 {
		return
	}
	r.rtos++
	r.ssthresh, r.cwnd, r.dupAcks = max(r.cwnd/2, 2), 1, 0
	seqs := slices.Sorted(maps.Keys(r.flight))
	oldest := r.flight[seqs[0]]
	var rest []*refSeg
	for _, seq := range seqs[1:] {
		r.flight[seq].rexmit = true
		rest = append(rest, r.flight[seq])
	}
	r.queue, r.qhead = append(rest, r.queue[r.qhead:]...), 0
	r.flight = map[uint64]*refSeg{}
	r.transmit(oldest, true)
}

// TestSendBufferMatchesQueueAndFlight replays seeded random scripts — send, a
// cumulative ACK (old, new, or past the cursor a timeout moved back), three
// duplicate ACKs, a retransmission timeout — against a real conn with a mute
// peer and against refSender, and wants them indistinguishable after every
// step: the same seqs on the wire in the same order with the same
// retransmission marks, the same QueueDepth, the same number of segments on
// lease.
func TestSendBufferMatchesQueueAndFlight(t *testing.T) {
	const scripts, steps = 240, 120
	fast := netsim.AccessProfile{DownKbps: 1e6, UpKbps: 1e6, QueueDelayMax: time.Second}
	for seed := int64(0); seed < scripts; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clock := simclock.New()
		n := netsim.New(clock, netsim.StaticRoute(netsim.Route{OneWayDelay: time.Millisecond}), 7)
		n.AddHost(netsim.HostConfig{Name: "a", Access: fast})
		n.AddHost(netsim.HostConfig{Name: "b", Access: fast})
		sb := NewStack(n, "b")
		var wire []refSeg
		n.Register("a:100", func(pkt *netsim.Packet) {
			if seg, ok := pkt.Payload.(*tcpSeg); ok && !seg.fin {
				wire = append(wire, refSeg{seg.seq, seg.rexmit})
			}
			n.ReleaseTransit(pkt.Payload)
		})
		tc := connOn(sb, "b:5000", "a:100")
		tc.established = true
		ref := &refSender{flight: map[uint64]*refSeg{}, cwnd: tc.cwnd, ssthresh: tc.ssthresh}

		var script []string
		for step := 0; step < steps; step++ {
			var op string
			switch k := rng.Intn(10); {
			case k < 5:
				op = "send"
				tc.Send(step, 100)
				ref.send()
			case k < 8:
				// Anything the peer could say: from just below what is already
				// acknowledged up to everything ever put on the wire.
				sent := ref.sendBase
				for _, s := range ref.wire {
					sent = max(sent, s.seq+1)
				}
				cum := max(ref.sendBase, 2) - 2 + uint64(rng.Intn(int(sent-ref.sendBase)+3))
				cum = min(cum, sent)
				op = fmt.Sprintf("ack %d", cum)
				tc.onAck(&tcpAck{cumAck: cum})
				ref.ack(cum)
			case k < 9:
				op = "dup-ack x3"
				for i := 0; i < 3; i++ {
					tc.onAck(&tcpAck{cumAck: ref.sendBase})
					ref.ack(ref.sendBase)
				}
			case ref.rtos < maxConsecutiveRTOs: // one more would abort the conn
				op = "rto"
				tc.onRTO()
				ref.rto()
			}
			script = append(script, op)
			// Everything sent this step lands on the mute peer, which lets go of
			// it: what is still on lease is what the sender holds. The RTO timer
			// is a second or more away and never fires on its own.
			clock.RunUntil(clock.Now() + 5*time.Millisecond)
			if !slices.Equal(wire, ref.wire) || tc.QueueDepth() != ref.depth() || sb.segs.Leased() != ref.held {
				t.Fatalf("seed %d, after %v:\nwire      %v\nreference %v\nQueueDepth %d (reference %d), %d segments on lease (reference %d)",
					seed, script, wire, ref.wire, tc.QueueDepth(), ref.depth(), sb.segs.Leased(), ref.held)
			}
		}
		tc.Close()
		clock.Run()
		if leased := sb.segs.Leased(); leased != 0 {
			t.Fatalf("seed %d: %d segments on lease after the close", seed, leased)
		}
	}
}

// released counts how often the transport let go of it.
type released struct{ n int }

func (r *released) TransitRelease(*netsim.TransitPool) { r.n++ }

// TestSendBufferIsBounded: the send buffer is a window, and a window makes
// room past seqwin.MaxSpan by evicting. A conn whose handshake never completes
// takes MaxSpan messages; the next Send fails like a full socket — an error,
// the payload released as on a closed conn — and evicts nothing.
func TestSendBufferIsBounded(t *testing.T) {
	_, _, sb := newPair(t, netsim.Route{})
	tc := connOn(sb, "b:5000", "a:100")
	payload := &released{}
	for i := 0; i < seqwin.MaxSpan; i++ {
		if err := tc.Send(payload, 100); err != nil {
			t.Fatalf("Send %d of %d: %v", i, seqwin.MaxSpan, err)
		}
	}
	if err := tc.Send(payload, 100); !errors.Is(err, ErrSendBufferFull) {
		t.Fatalf("Send into a buffer of %d unacknowledged messages: %v, want ErrSendBufferFull", seqwin.MaxSpan, err)
	}
	if payload.n != 1 {
		t.Errorf("the refused payload was released %d times, want once", payload.n)
	}
	if depth, leased := tc.QueueDepth(), sb.segs.Leased(); depth != seqwin.MaxSpan || leased != seqwin.MaxSpan || tc.send.Get(0) == nil || tc.nextSeq != seqwin.MaxSpan {
		t.Errorf("after the refusal: QueueDepth %d, %d segments on lease, seq 0 held=%v, nextSeq %d: want all %d kept and no seq spent",
			depth, leased, tc.send.Get(0) != nil, tc.nextSeq, seqwin.MaxSpan)
	}
	tc.teardown()
	if payload.n != 1+seqwin.MaxSpan || sb.segs.Leased() != 0 {
		t.Errorf("after the close: payload released %d times, %d segments on lease", payload.n, sb.segs.Leased())
	}
}

// TestListenerForgetsClosedConns: a listener's accept table exists to hand a
// retried SYN the conn its first copy opened, and client ports never repeat,
// so an entry nobody removes pins its conn for the life of the server. Every
// way the server side of a conn ends — its own Close, the client's FIN —
// takes it out of the table; a retried SYN while it is open still finds it.
func TestListenerForgetsClosedConns(t *testing.T) {
	clock, sa, sb := newPair(t, netsim.Route{OneWayDelay: 20 * time.Millisecond})
	var srv []Conn
	sa.Listen(554, func(c Conn) { srv = append(srv, c) })
	seen := sa.listeners[554].seen
	const cycles = 40
	for i := 0; i < cycles; i++ {
		var cli *simTCP
		sb.DialTCP("a:554", func(c Conn, err error) { cli, _ = c.(*simTCP) })
		clock.Run()
		if cli == nil || len(srv) != i+1 || len(seen) != 1 {
			t.Fatalf("cycle %d: dialed=%v, %d conns accepted, %d in the accept table; want one open conn in it", i, cli != nil, len(srv), len(seen))
		}
		// The dialer's SYN again, as if its first copy had been slow, not lost.
		cli.sendSyn()
		clock.Run()
		if len(srv) != i+1 {
			t.Fatalf("cycle %d: a retried SYN forked a second server-side conn", i)
		}
		if i%2 == 0 {
			cli.Close()
		} else {
			srv[i].Close()
		}
		clock.Run()
		if !connClosed(srv[i]) || !connClosed(cli) || len(seen) != 0 {
			t.Fatalf("cycle %d: server side closed=%v, client closed=%v, %d conns left in the accept table", i, connClosed(srv[i]), connClosed(cli), len(seen))
		}
	}
}
