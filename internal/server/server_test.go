package server

import (
	"math/rand"
	"strconv"
	"testing"
	"time"

	"realtracer/internal/media"
	"realtracer/internal/netsim"
	"realtracer/internal/rtsp"
	"realtracer/internal/session"
	"realtracer/internal/simclock"
	"realtracer/internal/transport"
)

// msgs is the pool the tests lease their requests from.
var msgs rtsp.Pool

// ctlRig dials the server's control port and provides a request/response
// helper, exercising the RTSP handling without a full player.
type ctlRig struct {
	t     *testing.T
	clock *simclock.Clock
	net   *netsim.Network
	srv   *Server
	cli   *transport.Stack
	conn  transport.Conn
	resp  chan rtsp.Message
	cseq  int
}

func newCtlRig(t *testing.T, unavailability float64) *ctlRig {
	t.Helper()
	return newRig(t, netsim.Route{OneWayDelay: 10 * time.Millisecond}, unavailability)
}

// newRig is newCtlRig over a route of the caller's choosing.
func newRig(t *testing.T, route netsim.Route, unavailability float64) *ctlRig {
	t.Helper()
	clock := simclock.New()
	n := netsim.New(clock, netsim.StaticRoute(route), 3)
	n.AddHost(netsim.HostConfig{Name: "srv", Access: netsim.DefaultAccessProfile(netsim.AccessServer)})
	n.AddHost(netsim.HostConfig{Name: "cli", Access: netsim.DefaultAccessProfile(netsim.AccessT1LAN)})
	lib := media.NewLibrary([]*media.Clip{
		media.GenerateClip("rtsp://srv/clip000.rm", "t", media.ContentNews, 2*time.Minute, 20, 350, 7),
	})
	srv := New(Config{
		Clock: clock, Net: session.SimNet{Stack: transport.NewStack(n, "srv")},
		Library: lib, Rand: rand.New(rand.NewSource(1)),
		Unavailability: unavailability, SureStream: true,
	})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	r := &ctlRig{t: t, clock: clock, net: n, srv: srv, cli: transport.NewStack(n, "cli")}
	r.dial()
	return r
}

// another opens a second control connection from the rig's client to the
// same server: a rig of its own over the same world.
func (r *ctlRig) another() *ctlRig {
	r.t.Helper()
	o := &ctlRig{t: r.t, clock: r.clock, net: r.net, srv: r.srv, cli: r.cli}
	o.dial()
	return o
}

// from opens a control connection to the same server from a new host.
func (r *ctlRig) from(host string) *ctlRig {
	r.t.Helper()
	r.net.AddHost(netsim.HostConfig{Name: host, Access: netsim.DefaultAccessProfile(netsim.AccessT1LAN)})
	o := &ctlRig{t: r.t, clock: r.clock, net: r.net, srv: r.srv, cli: transport.NewStack(r.net, host)}
	o.dial()
	return o
}

// dial opens the rig's control connection.
func (r *ctlRig) dial() {
	r.t.Helper()
	r.resp = make(chan rtsp.Message, 16)
	r.cli.DialTCP("srv:554", func(c transport.Conn, err error) {
		if err != nil {
			r.t.Fatalf("dial: %v", err)
		}
		r.conn = c
		// A reply goes back to the server's arena once this returns: keep a
		// copy, not the message.
		c.SetReceiver(func(payload any, _ int) {
			if m, ok := payload.(*rtsp.Message); ok {
				select {
				case r.resp <- *m:
				default:
				}
			}
		})
	})
	r.clock.RunUntil(r.clock.Now() + time.Second)
	if r.conn == nil {
		r.t.Fatal("control dial failed")
	}
}

func (r *ctlRig) request(m *rtsp.Message) *rtsp.Message {
	r.t.Helper()
	r.cseq++
	m.CSeq = r.cseq
	r.conn.Send(m, m.WireSize())
	r.clock.RunUntil(r.clock.Now() + 2*time.Second)
	select {
	case resp := <-r.resp:
		return &resp
	default:
		r.t.Fatalf("no response to %s", m.Method)
		return nil
	}
}

func TestOptionsAdvertisesMethods(t *testing.T) {
	r := newCtlRig(t, 0)
	resp := r.request(msgs.Request(rtsp.MethodOptions, "*", 0))
	if resp.Status != rtsp.StatusOK || resp.Get("Public") == "" {
		t.Fatalf("OPTIONS response: %+v", resp)
	}
}

func TestDescribeReturnsParseableBody(t *testing.T) {
	r := newCtlRig(t, 0)
	resp := r.request(msgs.Request(rtsp.MethodDescribe, "rtsp://srv/clip000.rm", 0))
	if resp.Status != rtsp.StatusOK {
		t.Fatalf("status=%d", resp.Status)
	}
	var desc session.ClipDesc
	if err := session.ParseClipDesc(resp.Body, &desc); err != nil {
		t.Fatalf("body unparseable: %v", err)
	}
	if len(desc.Encodings) != 6 {
		t.Fatalf("encodings=%d", len(desc.Encodings))
	}
}

func TestDescribeNotFound(t *testing.T) {
	r := newCtlRig(t, 0)
	resp := r.request(msgs.Request(rtsp.MethodDescribe, "rtsp://srv/ghost.rm", 0))
	if resp.Status != rtsp.StatusNotFound {
		t.Fatalf("status=%d want 404", resp.Status)
	}
}

func TestDescribeUnavailable(t *testing.T) {
	r := newCtlRig(t, 1.0)
	resp := r.request(msgs.Request(rtsp.MethodDescribe, "rtsp://srv/clip000.rm", 0))
	if resp.Status != rtsp.StatusUnavailable {
		t.Fatalf("status=%d want 453", resp.Status)
	}
	describes, unavailable, _, _ := r.srv.Counters()
	if describes != 1 || unavailable != 1 {
		t.Fatalf("counters: describes=%d unavailable=%d", describes, unavailable)
	}
}

func TestSetupNegotiatesTransport(t *testing.T) {
	r := newCtlRig(t, 0)
	req := msgs.Request(rtsp.MethodSetup, "rtsp://srv/clip000.rm", 0)
	req.Set("Transport", rtsp.TransportSpec{Protocol: "udp", ClientDataAddr: "cli:20000"}.Format())
	req.Set("Bandwidth", "150")
	resp := r.request(req)
	if resp.Status != rtsp.StatusOK {
		t.Fatalf("status=%d", resp.Status)
	}
	if resp.Get("Session") == "" {
		t.Fatal("no session id")
	}
	spec, err := rtsp.ParseTransport(resp.Get("Transport"))
	if err != nil || spec.ServerDataAddr == "" {
		t.Fatalf("transport header bad: %v %+v", err, spec)
	}
	// Each protocol's value is the server's data address for it, rendered
	// once: later SETUPs reuse it.
	for proto, addr := range map[string]string{"udp": r.srv.udpPort.LocalAddr(), "tcp": "srv:" + strconv.Itoa(session.DataTCPPort)} {
		if got, want := r.srv.transportFor(proto), (rtsp.TransportSpec{Protocol: proto, ServerDataAddr: addr}).Format(); got != want {
			t.Errorf("%s SETUP reply's Transport = %q, want %q", proto, got, want)
		}
	}
	if n := testing.AllocsPerRun(10, func() { r.srv.transportFor("udp"); r.srv.transportFor("tcp") }); n != 0 {
		t.Errorf("a SETUP reply's Transport value costs %v allocations once rendered", n)
	}
}

func TestSetupRejectsBadTransport(t *testing.T) {
	r := newCtlRig(t, 0)
	req := msgs.Request(rtsp.MethodSetup, "rtsp://srv/clip000.rm", 0)
	req.Set("Transport", "proto=carrier-pigeon")
	resp := r.request(req)
	if resp.Status != rtsp.StatusInternalError {
		t.Fatalf("status=%d want 500", resp.Status)
	}
}

// TestSetupValidatesBandwidth: a Bandwidth header that is present must be a
// positive integer, or the SETUP gets 400 and no session; an absent one means
// the 300 kbps default.
func TestSetupValidatesBandwidth(t *testing.T) {
	for _, row := range []struct {
		name, value string // value "" leaves the header out
		status      int
		kbps        float64
	}{
		{"stated", "150", rtsp.StatusOK, 150},
		{"absent", "", rtsp.StatusOK, 300},
		{"zero", "0", rtsp.StatusBadRequest, 0},
		{"negative", "-5", rtsp.StatusBadRequest, 0},
		{"not a number", "fast", rtsp.StatusBadRequest, 0},
		{"fractional", "150.5", rtsp.StatusBadRequest, 0},
	} {
		t.Run(row.name, func(t *testing.T) {
			r := newCtlRig(t, 0)
			req := msgs.Request(rtsp.MethodSetup, "rtsp://srv/clip000.rm", 0)
			req.Set("Transport", rtsp.TransportSpec{Protocol: "udp", ClientDataAddr: "cli:20000"}.Format())
			if row.value != "" {
				req.Set("Bandwidth", row.value)
			}
			resp := r.request(req)
			if resp.Status != row.status {
				t.Fatalf("status=%d want %d", resp.Status, row.status)
			}
			if row.status != rtsp.StatusOK {
				if n := r.srv.ActiveSessions(); n != 0 || resp.Get("Session") != "" {
					t.Errorf("a refused SETUP left %d sessions and a Session header %q", n, resp.Get("Session"))
				}
				return
			}
			sess := r.srv.sessions[resp.Get("Session")]
			if sess == nil {
				t.Fatalf("no session %q", resp.Get("Session"))
			}
			if sess.maxKbps != row.kbps {
				t.Errorf("session capped at %v kbps, want %v", sess.maxKbps, row.kbps)
			}
		})
	}
}

func TestPlayWithoutSetupFails(t *testing.T) {
	r := newCtlRig(t, 0)
	resp := r.request(msgs.Request(rtsp.MethodPlay, "rtsp://srv/clip000.rm", 0))
	if resp.Status != rtsp.StatusNotFound {
		t.Fatalf("status=%d want 404", resp.Status)
	}
}

func TestTeardownUnknownSessionIsOK(t *testing.T) {
	r := newCtlRig(t, 0)
	req := msgs.Request(rtsp.MethodTeardown, "rtsp://srv/clip000.rm", 0)
	req.Set("Session", "sess-999")
	resp := r.request(req)
	if resp.Status != rtsp.StatusOK {
		t.Fatalf("status=%d", resp.Status)
	}
}

// TestSessionBelongsToItsControlConn: PLAY, PAUSE and TEARDOWN naming a
// session set up on another control connection get 454 and leave it as it
// was; naming their own, they get 200 — also when the session was restored
// from a snapshot, where it gets a controlConn of its own over the same conn
// (Server.Sync), not the one its conn delivers requests to.
func TestSessionBelongsToItsControlConn(t *testing.T) {
	for _, method := range []string{rtsp.MethodPlay, rtsp.MethodPause, rtsp.MethodTeardown} {
		for _, whose := range []string{"own", "own restored", "foreign"} {
			t.Run(method+"/"+whose, func(t *testing.T) {
				owner := newCtlRig(t, 0)
				setup := msgs.Request(rtsp.MethodSetup, "rtsp://srv/clip000.rm", 0)
				setup.Set("Transport", rtsp.TransportSpec{Protocol: "udp", ClientDataAddr: "cli:20000"}.Format())
				setup.Set("Bandwidth", "80")
				id := owner.request(setup).Get("Session")
				sess := owner.srv.sessions[id]
				if sess == nil {
					t.Fatalf("SETUP made no session %q", id)
				}
				asker, own := owner, whose != "foreign"
				switch whose {
				case "own restored":
					sess.cc = &controlConn{srv: owner.srv, conn: sess.cc.conn}
				case "foreign":
					asker = owner.another()
				}
				req := msgs.Request(method, "rtsp://srv/clip000.rm", 0)
				req.Set("Session", id)
				resp := asker.request(req)
				want := rtsp.StatusOK
				if !own {
					want = rtsp.StatusSessionNotFound
				}
				if resp.Status != want || resp.Reason != rtsp.StatusText(want) {
					t.Fatalf("%s of session %s: %d %s, want %d", method, id, resp.Status, resp.Reason, want)
				}
				_, live := owner.srv.sessions[id]
				switch {
				case own && method == rtsp.MethodTeardown && live:
					t.Error("TEARDOWN on the session's own conn left it live")
				case own && method == rtsp.MethodPlay && !sess.playing:
					t.Error("PLAY on the session's own conn did not start it")
				case !own && (!live || sess.playing || sess.stopped || owner.srv.played != 0 || owner.srv.tornDown != 0):
					t.Errorf("%s from another conn touched the session: live=%v playing=%v stopped=%v, %d played, %d torn down",
						method, live, sess.playing, sess.stopped, owner.srv.played, owner.srv.tornDown)
				}
			})
		}
	}
}

// TestSetupDataAddrIsTheSendersHost pins that a SETUP's UDP data address
// belongs to the host of the control conn that sends it: a client naming
// another host's address gets 400 and no session, so it cannot take over the
// session the server finds by that address.
func TestSetupDataAddrIsTheSendersHost(t *testing.T) {
	setup := func(r *ctlRig, dataAddr string) *rtsp.Message {
		m := msgs.Request(rtsp.MethodSetup, "rtsp://srv/clip000.rm", 0)
		m.Set("Transport", rtsp.TransportSpec{Protocol: "udp", ClientDataAddr: dataAddr}.Format())
		m.Set("Bandwidth", "80")
		return r.request(m)
	}
	owner := newCtlRig(t, 0)
	sess := owner.srv.sessions[setup(owner, "cli:20000").Get("Session")]
	if sess == nil || owner.srv.byDataAddr["cli:20000"] != sess {
		t.Fatal("a SETUP from cli for cli:20000 made no session indexed by that address")
	}
	rogue := owner.from("rogue")
	for _, addr := range []string{"cli:20000", "cli:20001", "srv:20000"} {
		if resp := setup(rogue, addr); resp.Status != rtsp.StatusBadRequest {
			t.Errorf("SETUP from rogue for %s: %d %s, want %d", addr, resp.Status, resp.Reason, rtsp.StatusBadRequest)
		}
		if len(owner.srv.sessions) != 1 || len(owner.srv.byDataAddr) != 1 || owner.srv.byDataAddr["cli:20000"] != sess {
			t.Fatalf("SETUP from rogue for %s changed the sessions: %d sessions, %d data addresses", addr, len(owner.srv.sessions), len(owner.srv.byDataAddr))
		}
	}
	if resp := setup(rogue, "rogue:20000"); resp.Status != rtsp.StatusOK || owner.srv.byDataAddr["rogue:20000"] == nil {
		t.Errorf("SETUP from rogue for its own rogue:20000: %d %s, want an indexed session", resp.Status, resp.Reason)
	}
}

func TestPauseHaltsPacing(t *testing.T) {
	r := newCtlRig(t, 0)
	setup := msgs.Request(rtsp.MethodSetup, "rtsp://srv/clip000.rm", 0)
	setup.Set("Transport", rtsp.TransportSpec{Protocol: "udp", ClientDataAddr: "cli:20000"}.Format())
	setup.Set("Bandwidth", "80")
	resp := r.request(setup)
	id := resp.Get("Session")
	play := msgs.Request(rtsp.MethodPlay, "rtsp://srv/clip000.rm", 0)
	play.Set("Session", id)
	if got := r.request(play); got.Status != rtsp.StatusOK {
		t.Fatalf("play status=%d", got.Status)
	}
	pause := msgs.Request(rtsp.MethodPause, "rtsp://srv/clip000.rm", 0)
	pause.Set("Session", id)
	if got := r.request(pause); got.Status != rtsp.StatusOK {
		t.Fatalf("pause status=%d", got.Status)
	}
	// After the pause settles, the session's pacer stops offering packets:
	// the network drains to silence.
	r.clock.RunUntil(r.clock.Now() + 30*time.Second)
	sentBefore, _, _ := r.net.Stats()
	r.clock.RunUntil(r.clock.Now() + 10*time.Second)
	sentAfter, _, _ := r.net.Stats()
	if sentAfter > sentBefore {
		t.Fatalf("packets still flowing after PAUSE: %d -> %d", sentBefore, sentAfter)
	}
}

// tcpSession SETUPs and PLAYs the rig's clip over TCP data and returns the
// server-side session and the client's data conn, whose hello bound it.
func (r *ctlRig) tcpSession() (*streamSession, transport.Conn) {
	r.t.Helper()
	setup := msgs.Request(rtsp.MethodSetup, "rtsp://srv/clip000.rm", 0)
	setup.Set("Transport", rtsp.TransportSpec{Protocol: "tcp"}.Format())
	setup.Set("Bandwidth", "350")
	id := r.request(setup).Get("Session")
	var data transport.Conn
	r.cli.DialTCP("srv:"+strconv.Itoa(session.DataTCPPort), func(c transport.Conn, err error) {
		if err != nil {
			r.t.Fatalf("data dial: %v", err)
		}
		data = c
		c.SetReceiver(func(any, int) {})
		c.Send(&session.DataHello{SessionID: id}, len(id)+1)
	})
	play := msgs.Request(rtsp.MethodPlay, "rtsp://srv/clip000.rm", 0)
	play.Set("Session", id)
	if resp := r.request(play); resp.Status != rtsp.StatusOK {
		r.t.Fatalf("play status=%d", resp.Status)
	}
	sess := r.srv.sessions[id]
	if data == nil || sess.dataTCP == nil {
		r.t.Fatal("TCP data conn not bound to its session")
	}
	return sess, data
}

// TestDeadDataConnStopsPacing streams two TCP sessions over a path too slow
// for the clip, so both servers' send buffers sit above tcpBacklogHigh, then
// closes one client's data conn. That conn's backlog is frozen above the
// mark: its pacer stops re-arming, while its switch check runs on, and the
// live session's pacer keeps polling its backlog.
func TestDeadDataConnStopsPacing(t *testing.T) {
	r := newRig(t, netsim.Route{OneWayDelay: 40 * time.Millisecond, CapacityKbps: 40}, 0)
	r.srv.cfg.SureStream = false // stay on the top rung: frames of several segments
	dead, deadConn := r.tcpSession()
	live, _ := r.from("cli2").tcpSession()
	r.clock.RunUntil(r.clock.Now() + 20*time.Second)
	// Close the client's end on a tick that left the server's backlog above
	// the mark; the client ACKs nothing after that.
	for i := 0; dead.backlogProbe.QueueDepth() <= tcpBacklogHigh+1; i++ {
		if i == 100 {
			t.Fatalf("the server's backlog never rose above %d: the path drains too fast for this test", tcpBacklogHigh+1)
		}
		r.clock.RunUntil(r.clock.Now() + paceQuantum)
	}
	deadConn.Close()
	r.clock.RunUntil(r.clock.Now() + 5*time.Second)
	if !dead.backlogProbe.Closed() || dead.backlogProbe.QueueDepth() <= tcpBacklogHigh {
		t.Fatalf("the closed data conn reads closed=%v with backlog %d; want closed above %d",
			dead.backlogProbe.Closed(), dead.backlogProbe.QueueDepth(), tcpBacklogHigh)
	}
	if dead.paceTimer.Active() {
		t.Error("a pace tick is still armed for a session whose data conn closed with its backlog above the mark")
	}
	if !dead.checkTimer.Active() {
		t.Error("the dead session's switch check stopped with its pacer")
	}
	if d := live.backlogProbe.QueueDepth(); d <= tcpBacklogHigh/2 || !live.paceTimer.Active() {
		t.Errorf("the live session's pacer is armed=%v with backlog %d; want it polling a backlog near %d", live.paceTimer.Active(), d, tcpBacklogHigh)
	}
}
