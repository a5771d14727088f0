package transport

import (
	"testing"
	"time"

	"realtracer/internal/netsim"
	"realtracer/internal/simclock"
)

// fireFunc adapts a closure to a simclock.EventHandler. No owner walks one,
// so a world holding one is not checkpointable.
type fireFunc func()

func (f fireFunc) Fire(time.Duration) { f() }

func newPair(t *testing.T, route netsim.Route) (*simclock.Clock, *Stack, *Stack) {
	t.Helper()
	clock := simclock.New()
	n := netsim.New(clock, netsim.StaticRoute(route), 7)
	n.AddHost(netsim.HostConfig{Name: "a", Access: netsim.DefaultAccessProfile(netsim.AccessServer)})
	n.AddHost(netsim.HostConfig{Name: "b", Access: netsim.DefaultAccessProfile(netsim.AccessDSLCable)})
	return clock, NewStack(n, "a"), NewStack(n, "b")
}

// connClosed reports whether a simulated TCP conn has closed.
func connClosed(c Conn) bool { return c.(*simTCP).closed }

// connOn opens a registered simulated TCP conn on s without a handshake.
func connOn(s *Stack, local, peer netsim.Addr) *simTCP {
	return newSimTCP(s, s.endpoint(local), s.endpoint(peer))
}

func TestTCPConnectAndDeliverInOrder(t *testing.T) {
	clock, sa, sb := newPair(t, netsim.Route{OneWayDelay: 30 * time.Millisecond})

	var serverConn Conn
	var got []int
	sa.Listen(100, func(c Conn) {
		serverConn = c
		c.SetReceiver(func(payload any, _ int) {
			got = append(got, payload.(int))
		})
	})

	var clientConn Conn
	sb.DialTCP("a:100", func(c Conn, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		clientConn = c
		for i := 0; i < 500; i++ {
			c.Send(i, 1000)
		}
	})
	clock.RunUntil(2 * time.Minute)

	if clientConn == nil || serverConn == nil {
		t.Fatal("handshake never completed")
	}
	if len(got) != 500 {
		t.Fatalf("delivered %d of 500 messages", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out-of-order delivery at %d: got %d", i, v)
		}
	}
}

func TestTCPRecoversFromLoss(t *testing.T) {
	clock, sa, sb := newPair(t, netsim.Route{OneWayDelay: 30 * time.Millisecond, LossRate: 0.05})

	var got []int
	sa.Listen(100, func(c Conn) {
		c.SetReceiver(func(payload any, _ int) { got = append(got, payload.(int)) })
	})
	var rexmit uint64
	sb.DialTCP("a:100", func(c Conn, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		for i := 0; i < 1000; i++ {
			c.Send(i, 1000)
		}
		tc := c.(*simTCP)
		clock.AfterHandler(5*time.Minute, fireFunc(func() { rexmit, _, _ = tc.Counters() }))
	})
	clock.RunUntil(6 * time.Minute)

	if len(got) != 1000 {
		t.Fatalf("delivered %d of 1000 messages under 5%% loss", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out-of-order delivery at %d: got %d", i, v)
		}
	}
	if rexmit == 0 {
		t.Error("5% loss produced zero retransmissions — loss model or counters broken")
	}
}

func TestTCPSustainedStream(t *testing.T) {
	// Mimic the streaming server: messages offered over time, not all at
	// once — this is the shape that stalled the first integration test.
	clock, sa, sb := newPair(t, netsim.Route{OneWayDelay: 40 * time.Millisecond, LossRate: 0.01})

	var got int
	sa.Listen(100, func(c Conn) {
		c.SetReceiver(func(payload any, _ int) { got++ })
	})
	sent := 0
	sb.DialTCP("a:100", func(c Conn, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		var tick func()
		tick = func() {
			for i := 0; i < 3; i++ {
				c.Send(sent, 800)
				sent++
			}
			if sent < 1800 { // 60 s at 30 msg/s
				clock.AfterHandler(100*time.Millisecond, fireFunc(tick))
			}
		}
		tick()
	})
	clock.RunUntil(5 * time.Minute)

	if got < sent*95/100 {
		t.Fatalf("sustained stream stalled: delivered %d of %d", got, sent)
	}
}

func TestUDPDeliveryAndLoss(t *testing.T) {
	clock, sa, sb := newPair(t, netsim.Route{OneWayDelay: 20 * time.Millisecond, LossRate: 0.2})

	var got int
	sa.ListenUDP(200, func(from string, payload any, size int) { got++ })
	// Pace sends at 80 Kbps so the 128 Kbps uplink never queues: observed
	// loss should then be the route's 20 %.
	c := sb.DialUDP("a:200")
	for i := 0; i < 1000; i++ {
		final := i
		clock.AfterHandler(time.Duration(final)*50*time.Millisecond, fireFunc(func() {
			c.Send(final, 500)
		}))
	}
	clock.RunUntil(2 * time.Minute)

	if got == 0 {
		t.Fatal("no datagrams delivered")
	}
	if got > 900 || got < 700 {
		t.Errorf("20%% loss delivered %d of 1000 — loss model off", got)
	}
}

func TestUDPConnectedFilterIgnoresStrangers(t *testing.T) {
	clock, sa, sb := newPair(t, netsim.Route{})

	// b dials a:300; a replies from a different port — must be dropped by
	// the connected-UDP filter.
	var aPort *UDPPort
	aPort = sa.ListenUDP(300, func(from string, payload any, size int) {
		aPort.ConnFor(from).Send("reply", 100)
	})
	other := sa.ListenUDP(301, nil)
	defer other.Close()

	c := sb.DialUDP("a:300")
	var got []string
	c.SetReceiver(func(payload any, _ int) { got = append(got, payload.(string)) })
	c.Send("hi", 100)
	clock.AfterHandler(10*time.Millisecond, fireFunc(func() {
		other.ConnFor(c.LocalAddr()).Send("stranger", 100)
	}))
	clock.RunUntil(time.Second)

	if len(got) != 1 || got[0] != "reply" {
		t.Fatalf("connected UDP filter failed: got %v", got)
	}
}

func TestDialTimeout(t *testing.T) {
	clock, _, sb := newPair(t, netsim.Route{})
	var gotErr error
	called := 0
	sb.DialTCP("a:9999", func(c Conn, err error) { gotErr = err; called++ })
	clock.RunUntil(time.Minute)
	if called != 1 {
		t.Fatalf("dial callback fired %d times", called)
	}
	if gotErr != ErrTimeout {
		t.Fatalf("expected ErrTimeout, got %v", gotErr)
	}
}

func TestSendAfterCloseFails(t *testing.T) {
	clock, sa, sb := newPair(t, netsim.Route{})
	sa.Listen(100, func(c Conn) {})
	var conn Conn
	sb.DialTCP("a:100", func(c Conn, err error) { conn = c })
	clock.RunUntil(time.Second)
	if conn == nil {
		t.Fatal("no conn")
	}
	conn.Close()
	if err := conn.Send(1, 10); err != ErrClosed {
		t.Fatalf("expected ErrClosed, got %v", err)
	}
}
