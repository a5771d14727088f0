package server

import (
	"math/rand"
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

// ctlRig dials the server's control port and provides a request/response
// helper, exercising the RTSP handling without a full player.
type ctlRig struct {
	t     *testing.T
	clock *simclock.Clock
	net   *netsim.Network
	srv   *Server
	conn  transport.Conn
	resp  chan *rtsp.Message
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
		Clock: vclock.Sim{C: clock}, Net: session.SimNet{Stack: transport.NewStack(n, "srv")},
		Library: lib, Rand: rand.New(rand.NewSource(1)),
		Unavailability: unavailability, SureStream: true,
	})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	r := &ctlRig{t: t, clock: clock, net: n, srv: srv, resp: make(chan *rtsp.Message, 16)}
	cli := transport.NewStack(n, "cli")
	cli.DialTCP("srv:554", func(c transport.Conn, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		r.conn = c
		c.SetReceiver(func(payload any, _ int) {
			if m, ok := payload.(*rtsp.Message); ok {
				select {
				case r.resp <- m:
				default:
				}
			}
		})
	})
	clock.RunUntil(time.Second)
	if r.conn == nil {
		t.Fatal("control dial failed")
	}
	return r
}

func (r *ctlRig) request(m *rtsp.Message) *rtsp.Message {
	r.t.Helper()
	r.cseq++
	m.CSeq = r.cseq
	r.conn.Send(m, m.WireSize())
	r.clock.RunUntil(r.clock.Now() + 2*time.Second)
	select {
	case resp := <-r.resp:
		return resp
	default:
		r.t.Fatalf("no response to %s", m.Method)
		return nil
	}
}

func TestOptionsAdvertisesMethods(t *testing.T) {
	r := newCtlRig(t, 0)
	resp := r.request(rtsp.NewRequest(rtsp.MethodOptions, "*", 0))
	if resp.Status != rtsp.StatusOK || resp.Get("Public") == "" {
		t.Fatalf("OPTIONS response: %+v", resp)
	}
}

func TestDescribeReturnsParseableBody(t *testing.T) {
	r := newCtlRig(t, 0)
	resp := r.request(rtsp.NewRequest(rtsp.MethodDescribe, "rtsp://srv/clip000.rm", 0))
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
	resp := r.request(rtsp.NewRequest(rtsp.MethodDescribe, "rtsp://srv/ghost.rm", 0))
	if resp.Status != rtsp.StatusNotFound {
		t.Fatalf("status=%d want 404", resp.Status)
	}
}

func TestDescribeUnavailable(t *testing.T) {
	r := newCtlRig(t, 1.0)
	resp := r.request(rtsp.NewRequest(rtsp.MethodDescribe, "rtsp://srv/clip000.rm", 0))
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
	req := rtsp.NewRequest(rtsp.MethodSetup, "rtsp://srv/clip000.rm", 0)
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
}

func TestSetupRejectsBadTransport(t *testing.T) {
	r := newCtlRig(t, 0)
	req := rtsp.NewRequest(rtsp.MethodSetup, "rtsp://srv/clip000.rm", 0)
	req.Set("Transport", "proto=carrier-pigeon")
	resp := r.request(req)
	if resp.Status != rtsp.StatusInternalError {
		t.Fatalf("status=%d want 500", resp.Status)
	}
}

func TestPlayWithoutSetupFails(t *testing.T) {
	r := newCtlRig(t, 0)
	resp := r.request(rtsp.NewRequest(rtsp.MethodPlay, "rtsp://srv/clip000.rm", 0))
	if resp.Status != rtsp.StatusNotFound {
		t.Fatalf("status=%d want 404", resp.Status)
	}
}

func TestTeardownUnknownSessionIsOK(t *testing.T) {
	r := newCtlRig(t, 0)
	req := rtsp.NewRequest(rtsp.MethodTeardown, "rtsp://srv/clip000.rm", 0)
	req.Set("Session", "sess-999")
	resp := r.request(req)
	if resp.Status != rtsp.StatusOK {
		t.Fatalf("status=%d", resp.Status)
	}
}

func TestPauseHaltsPacing(t *testing.T) {
	r := newCtlRig(t, 0)
	setup := rtsp.NewRequest(rtsp.MethodSetup, "rtsp://srv/clip000.rm", 0)
	setup.Set("Transport", rtsp.TransportSpec{Protocol: "udp", ClientDataAddr: "cli:20000"}.Format())
	setup.Set("Bandwidth", "80")
	resp := r.request(setup)
	id := resp.Get("Session")
	play := rtsp.NewRequest(rtsp.MethodPlay, "rtsp://srv/clip000.rm", 0)
	play.Set("Session", id)
	if got := r.request(play); got.Status != rtsp.StatusOK {
		t.Fatalf("play status=%d", got.Status)
	}
	pause := rtsp.NewRequest(rtsp.MethodPause, "rtsp://srv/clip000.rm", 0)
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
