package transport

import (
	"testing"
	"time"

	"realtracer/internal/netsim"
	"realtracer/internal/simclock"
)

// newBurstPair builds two hosts whose path suffers Gilbert–Elliott loss
// bursts: seconds-long episodes where most packets die, the regime that
// distinguishes burst-tolerant recovery from uniform-loss recovery.
func newBurstPair(t *testing.T, badLoss float64) (*simclock.Clock, *netsim.Network, *Stack, *Stack) {
	t.Helper()
	clock := simclock.New()
	n := netsim.New(clock, netsim.StaticRoute(netsim.Route{OneWayDelay: 30 * time.Millisecond}), 7)
	n.AddHost(netsim.HostConfig{Name: "a", Access: netsim.DefaultAccessProfile(netsim.AccessServer)})
	n.AddHost(netsim.HostConfig{Name: "b", Access: netsim.DefaultAccessProfile(netsim.AccessDSLCable)})
	n.SetDynamics(netsim.NewDynamics().LossBurst("*", "*", 0, 0, 0.15, 0.30, badLoss), 41)
	return clock, n, NewStack(n, "a"), NewStack(n, "b")
}

// TestTCPRetransmitsAcrossLossBursts drives the simulated TCP through
// bursty loss episodes: whole RTTs of traffic vanish at once, so recovery
// leans on retransmission timeouts, not just fast retransmit. Every
// message must still arrive exactly once, in order.
func TestTCPRetransmitsAcrossLossBursts(t *testing.T) {
	clock, n, sa, sb := newBurstPair(t, 0.85)

	var got []int
	sa.Listen(100, func(c Conn) {
		c.SetReceiver(func(payload any, _ int) {
			got = append(got, payload.(int))
		})
	})

	const msgs = 300
	dialed := false
	sb.DialTCP("a:100", func(c Conn, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		dialed = true
		// Trickle sends across the burst timeline so episodes hit both
		// fresh data and retransmissions.
		for i := 0; i < msgs; i++ {
			i := i
			clock.AfterHandler(time.Duration(i)*200*time.Millisecond, fireFunc(func() {
				c.Send(i, 900)
			}))
		}
	})
	clock.RunUntil(10 * time.Minute)

	if !dialed {
		t.Fatal("handshake never completed (SYN retries should survive bursts)")
	}
	if len(got) != msgs {
		t.Fatalf("delivered %d of %d messages across loss bursts", len(got), msgs)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out-of-order/duplicated delivery at %d: got %d", i, v)
		}
	}
	// The network itself must have dropped plenty — otherwise this test
	// exercised nothing and the chain never entered its bad state.
	_, _, dropped := n.Stats()
	if dropped == 0 {
		t.Fatal("no packets dropped: loss-burst dynamics inactive")
	}
}

// TestUDPLosesWholeBurstsButKeepsOrder is the contrast: fire-and-forget
// UDP on the same weather loses contiguous runs of datagrams (which is
// what FEC cannot repair and NACK recovery exists for), but never
// reorders what does arrive.
func TestUDPLosesWholeBurstsButKeepsOrder(t *testing.T) {
	clock, _, sa, sb := newBurstPair(t, 1.0)

	var got []int
	sa.ListenUDP(200, func(from string, payload any, _ int) {
		got = append(got, payload.(int))
	})
	c := sb.DialUDP("a:200")
	const msgs = 600
	for i := 0; i < msgs; i++ {
		i := i
		clock.AfterHandler(time.Duration(i)*100*time.Millisecond, fireFunc(func() { c.Send(i, 500) }))
	}
	clock.Run()

	if len(got) == msgs {
		t.Fatal("no datagrams lost: burst dynamics inactive")
	}
	if len(got) == 0 {
		t.Fatal("every datagram lost")
	}
	longest, run, prev := 0, 0, -1
	seen := make(map[int]bool, len(got))
	for _, v := range got {
		if v <= prev {
			t.Fatalf("UDP reordered: %d after %d", v, prev)
		}
		if seen[v] {
			t.Fatalf("UDP duplicated %d", v)
		}
		seen[v] = true
		run = v - prev - 1 // gap length before this arrival
		if run > longest {
			longest = run
		}
		prev = v
	}
	// At 10 datagrams/s and ~3s bad-state dwell with total loss, gaps of
	// many consecutive datagrams must appear — burstiness, not thinning.
	if longest < 8 {
		t.Fatalf("longest loss run %d datagrams; expected whole bursts to vanish", longest)
	}
}
