package server

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"realtracer/internal/media"
	"realtracer/internal/netsim"
	"realtracer/internal/rtsp"
	"realtracer/internal/session"
	"realtracer/internal/simclock"
	"realtracer/internal/transport"
	"realtracer/internal/vclock"
)

// TestControlSweep pins when and how the server prunes its control-conn
// list: nothing is dropped while the list is shorter than twice the live
// sessions plus 64; the accept that finds it that long drops every closed
// connection no session references — and only those — keeping the order of
// the rest, clearing the slots it vacated, and allocating nothing.
func TestControlSweep(t *testing.T) {
	clock := simclock.New()
	n := netsim.New(clock, netsim.StaticRoute(netsim.Route{OneWayDelay: 5 * time.Millisecond}), 1)
	n.AddHost(netsim.HostConfig{Name: "srv", Access: netsim.DefaultAccessProfile(netsim.AccessServer)})
	n.AddHost(netsim.HostConfig{Name: "cli", Access: netsim.DefaultAccessProfile(netsim.AccessT1LAN)})
	srv := New(Config{
		Clock: vclock.Sim{C: clock}, Net: session.SimNet{Stack: transport.NewStack(n, "srv")},
		Library: media.NewLibrary([]*media.Clip{
			media.GenerateClip("rtsp://srv/clip000.rm", "t", media.ContentNews, time.Minute, 20, 350, 7),
		}),
		Rand: rand.New(rand.NewSource(1)),
	})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	cli := transport.NewStack(n, "cli")
	var conns []transport.Conn
	dial := func() {
		t.Helper()
		before := len(conns)
		cli.DialTCP("srv:554", func(c transport.Conn, err error) {
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			c.SetReceiver(func(any, int) {})
			conns = append(conns, c)
		})
		clock.RunUntil(clock.Now() + time.Second)
		if len(conns) != before+1 {
			t.Fatal("control dial did not complete")
		}
	}
	const sessions = 5
	threshold := 2*sessions + 64
	for range threshold - 4 {
		dial()
	}
	for i := range sessions {
		req := rtsp.NewRequest(rtsp.MethodSetup, "rtsp://srv/clip000.rm", 1)
		req.Set("Transport", rtsp.TransportSpec{Protocol: "tcp"}.Format())
		conns[i].Send(req, req.WireSize())
	}
	closed := func(i int) bool { return i < 3 || (i >= 10 && i < 40) } // 0-2 hold sessions
	for i := range conns {
		if closed(i) {
			conns[i].Close()
		}
	}
	clock.RunUntil(clock.Now() + time.Second)
	if len(srv.sessions) != sessions {
		t.Fatalf("%d sessions set up, want %d", len(srv.sessions), sessions)
	}
	tracked := slices.Clone(srv.ctlConns)
	for i, cc := range tracked {
		if transport.ConnClosed(cc.conn) != closed(i) {
			t.Fatalf("control conn %d closed=%v on the server side, want %v", i, !closed(i), closed(i))
		}
	}

	// Up to the threshold the list only grows.
	for len(srv.ctlConns) < threshold {
		dial()
	}
	if !slices.Equal(srv.ctlConns[:len(tracked)], tracked) {
		t.Fatal("the control-conn list changed below the sweep threshold")
	}
	tracked = slices.Clone(srv.ctlConns)

	// The next accept sweeps.
	dial()
	var want []*controlConn
	for i, cc := range tracked {
		if !closed(i) || i < sessions {
			want = append(want, cc)
		}
	}
	got := srv.ctlConns
	if len(got) != len(want)+1 || !slices.Equal(got[:len(want)], want) {
		t.Fatalf("after the sweep the list holds %d conns, want the %d open or referenced ones in order, then the new one", len(got), len(want))
	}
	if newest := got[len(want)]; slices.Contains(tracked, newest) {
		t.Fatal("the accepted conn is not last on the list")
	}
	for i, cc := range got[len(got):cap(got)] {
		if cc != nil {
			t.Fatalf("slot %d past the swept list still holds a conn", len(got)+i)
		}
	}

	// A sweep allocates nothing: refill the list to the threshold with a
	// closed, unreferenced conn (inside its capacity) and track one more.
	spare := tracked[10]
	if allocs := testing.AllocsPerRun(1, func() {
		for len(srv.ctlConns) < threshold {
			srv.ctlConns = append(srv.ctlConns, spare)
		}
		srv.trackControl(spare)
	}); allocs != 0 {
		t.Fatalf("a sweep allocated %v times", allocs)
	}
	if len(srv.ctlConns) != len(want)+2 {
		t.Fatalf("the forced sweep left %d conns, want %d", len(srv.ctlConns), len(want)+2)
	}
}
