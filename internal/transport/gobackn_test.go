package transport

import (
	"slices"
	"testing"
	"time"

	"realtracer/internal/netsim"
)

// TestTCPGoBackNOrder pins what a retransmission timeout does to a
// multi-segment flight: the oldest unacknowledged segment goes back on the
// wire first, and every other segment of the flight waits again behind the
// cursor, ahead of unsent data in ascending sequence order, so the ACK clock
// then releases them oldest first. The peer is a mute packet handler, so nothing
// is acknowledged until the test says so.
func TestTCPGoBackNOrder(t *testing.T) {
	clock, sa, sb := newPair(t, netsim.Route{OneWayDelay: 20 * time.Millisecond})
	var wire []uint64
	sa.net.Register("a:100", func(pkt *netsim.Packet) {
		if seg, ok := pkt.Payload.(*tcpSeg); ok {
			wire = append(wire, seg.seq)
		}
	})
	tc := connOn(sb, "b:5000", "a:100")
	tc.established = true
	tc.cwnd = 8
	const flight, backlog = 8, 4
	for i := 0; i < flight+backlog; i++ {
		tc.Send(i, 500)
	}
	clock.RunUntil(initialRTO / 2)
	if want := []uint64{0, 1, 2, 3, 4, 5, 6, 7}; !slices.Equal(wire, want) {
		t.Fatalf("first flight on the wire = %v, want %v", wire, want)
	}

	// The timeout: exactly one retransmission, of the oldest segment.
	wire = wire[:0]
	clock.RunUntil(initialRTO + initialRTO/2)
	if _, _, timeouts := tc.Counters(); timeouts != 1 {
		t.Fatalf("timeouts = %d, want 1", timeouts)
	}
	if want := []uint64{0}; !slices.Equal(wire, want) {
		t.Fatalf("wire after the timeout = %v, want the oldest segment alone %v", wire, want)
	}
	var queued []uint64
	for seq := tc.sndNxt; seq < tc.nextSeq; seq++ {
		seg := tc.send.Get(seq)
		queued = append(queued, seg.seq)
		if seg.seq < flight && !seg.rexmit {
			t.Errorf("requeued segment %d is not marked as a retransmission (Karn)", seg.seq)
		}
	}
	if want := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}; !slices.Equal(queued, want) {
		t.Fatalf("waiting behind the cursor after the timeout = %v, want the rest of the flight in seq order ahead of unsent data %v", queued, want)
	}
	if depth := tc.QueueDepth(); depth != flight+backlog {
		t.Fatalf("QueueDepth = %d after the timeout, want %d (one in flight, the rest queued)", depth, flight+backlog)
	}

	// The ACK clock drains the queue oldest first.
	wire = wire[:0]
	for ack := uint64(1); ack <= flight+backlog; ack++ {
		tc.onAck(&tcpAck{cumAck: ack})
		clock.RunUntil(clock.Now() + 50*time.Millisecond)
	}
	if want := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}; !slices.Equal(wire, want) {
		t.Fatalf("wire while the ACK clock drains the queue = %v, want %v", wire, want)
	}
	if depth := tc.QueueDepth(); depth != 0 {
		t.Fatalf("QueueDepth = %d after everything was acknowledged", depth)
	}
}
