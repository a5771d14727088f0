package player_test

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"realtracer/internal/media"
	"realtracer/internal/netsim"
	"realtracer/internal/player"
	"realtracer/internal/server"
	"realtracer/internal/session"
	"realtracer/internal/simclock"
	"realtracer/internal/transport"
)

// fireFunc adapts a closure to a simclock.EventHandler. Its type is not a
// registered event kind, so a world holding one is not checkpointable.
type fireFunc func()

func (f fireFunc) Fire(time.Duration) { f() }

// fullRig is a richer variant of the basic test rig with server knobs.
type fullRig struct {
	clock *simclock.Clock
	net   *netsim.Network
	srv   *server.Server
	lib   *media.Library
}

func newFullRig(t *testing.T, cfg server.Config, clientAccess netsim.AccessClass, route netsim.Route) *fullRig {
	t.Helper()
	clock := simclock.New()
	n := netsim.New(clock, netsim.StaticRoute(route), 77)
	n.AddHost(netsim.HostConfig{Name: "srv", Access: netsim.DefaultAccessProfile(netsim.AccessServer)})
	n.AddHost(netsim.HostConfig{Name: "cli", Access: netsim.DefaultAccessProfile(clientAccess)})
	if cfg.Library == nil {
		cfg.Library = media.NewLibrary([]*media.Clip{
			media.GenerateClip("rtsp://srv/clip000.rm", "t", media.ContentNews, 4*time.Minute, 20, 350, 7),
		})
	}
	cfg.Clock = clock
	cfg.Net = session.SimNet{Stack: transport.NewStack(n, "srv")}
	if cfg.Rand == nil {
		cfg.Rand = rand.New(rand.NewSource(1))
	}
	srv := server.New(cfg)
	if err := srv.Start(); err != nil {
		t.Fatalf("server start: %v", err)
	}
	return &fullRig{clock: clock, net: n, srv: srv, lib: cfg.Library}
}

func (r *fullRig) play(t *testing.T, cfg player.Config) (*player.Stats, error) {
	t.Helper()
	var got *player.Stats
	var gotErr error
	cfg.Clock = r.clock
	cfg.Net = session.SimNet{Stack: transport.NewStack(r.net, "cli")}
	if cfg.ControlAddr == "" {
		cfg.ControlAddr = "srv:554"
	}
	if cfg.URL == "" {
		cfg.URL = "rtsp://srv/clip000.rm"
	}
	if cfg.MaxBandwidthKbps == 0 {
		cfg.MaxBandwidthKbps = 350
	}
	cfg.OnDone = func(st *player.Stats, err error) { got, gotErr = st, err }
	player.New(cfg).Start()
	r.clock.RunUntil(r.clock.Now() + 6*time.Minute)
	if got == nil {
		t.Fatal("session never finished")
	}
	return got, gotErr
}

func TestUnavailableClipReported(t *testing.T) {
	r := newFullRig(t, server.Config{Unavailability: 1.0, SureStream: true}, netsim.AccessDSLCable, netsim.Route{})
	st, err := r.play(t, player.Config{Protocol: transport.UDP})
	if !errors.Is(err, player.ErrUnavailable) {
		t.Fatalf("want ErrUnavailable, got %v", err)
	}
	if !st.Unavailable || st.Failed {
		t.Fatalf("flags wrong: %+v", st)
	}
	_, unavailable, _, _ := r.srv.Counters()
	if unavailable != 1 {
		t.Fatalf("server unavailable counter=%d", unavailable)
	}
}

func TestUnknownClipIsNotFound(t *testing.T) {
	r := newFullRig(t, server.Config{SureStream: true}, netsim.AccessDSLCable, netsim.Route{})
	st, err := r.play(t, player.Config{Protocol: transport.UDP, URL: "rtsp://srv/ghost.rm"})
	if err == nil {
		t.Fatal("missing clip should fail")
	}
	if !st.Failed {
		t.Fatal("stats should mark failure")
	}
}

func TestTeardownStopsServerSession(t *testing.T) {
	r := newFullRig(t, server.Config{SureStream: true}, netsim.AccessDSLCable,
		netsim.Route{OneWayDelay: 20 * time.Millisecond})
	_, err := r.play(t, player.Config{Protocol: transport.UDP, PlayFor: 15 * time.Second})
	if err != nil {
		t.Fatalf("session error: %v", err)
	}
	_, _, played, torndown := r.srv.Counters()
	if played != 1 || torndown != 1 {
		t.Fatalf("played=%d torndown=%d", played, torndown)
	}
}

func TestSureStreamDownswitchUnderCongestion(t *testing.T) {
	// A route that can barely carry the low rungs forces the server off the
	// top encoding.
	r := newFullRig(t, server.Config{SureStream: true, FEC: true}, netsim.AccessDSLCable,
		netsim.Route{OneWayDelay: 50 * time.Millisecond, CapacityKbps: 120, CongestionMean: 0.3, CongestionVar: 0.1})
	st, err := r.play(t, player.Config{Protocol: transport.UDP, PlayFor: 45 * time.Second})
	if err != nil {
		t.Fatalf("session error: %v", err)
	}
	if st.Switches == 0 {
		t.Fatalf("expected at least one SureStream switch, stats: %+v", st)
	}
	if st.MeasuredKbps > 150 {
		t.Fatalf("measured %.0f Kbps through a ~84 Kbps available path", st.MeasuredKbps)
	}
}

func TestNoSureStreamNoSwitches(t *testing.T) {
	r := newFullRig(t, server.Config{SureStream: false, FEC: true}, netsim.AccessDSLCable,
		netsim.Route{OneWayDelay: 50 * time.Millisecond, CapacityKbps: 120, CongestionMean: 0.3, CongestionVar: 0.1})
	st, _ := r.play(t, player.Config{Protocol: transport.UDP, PlayFor: 45 * time.Second})
	if st.Switches != 0 {
		t.Fatalf("SureStream disabled but %d switches observed", st.Switches)
	}
}

func TestSlowPCDecimatesFrames(t *testing.T) {
	r := newFullRig(t, server.Config{SureStream: true}, netsim.AccessT1LAN,
		netsim.Route{OneWayDelay: 10 * time.Millisecond})
	fast, err := r.play(t, player.Config{Protocol: transport.UDP, CPU: player.PCPentiumIII})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := r.play(t, player.Config{Protocol: transport.UDP, CPU: player.PCPentiumMMX})
	if err != nil {
		t.Fatal(err)
	}
	if slow.FramesDroppedCPU == 0 {
		t.Fatal("Pentium MMX should shed frames on a 320x240 stream")
	}
	if fast.FramesDroppedCPU != 0 {
		t.Fatalf("Pentium III dropped %d frames on CPU", fast.FramesDroppedCPU)
	}
	if slow.MeasuredFPS >= fast.MeasuredFPS {
		t.Fatalf("slow PC fps %.1f should trail fast PC %.1f", slow.MeasuredFPS, fast.MeasuredFPS)
	}
	if slow.CPUUtilization <= fast.CPUUtilization {
		t.Fatal("utilization ordering wrong")
	}
}

func TestFECReducesCorruption(t *testing.T) {
	lossy := netsim.Route{OneWayDelay: 40 * time.Millisecond, LossRate: 0.04}
	with := newFullRig(t, server.Config{SureStream: true, FEC: true}, netsim.AccessDSLCable, lossy)
	stWith, err := with.play(t, player.Config{Protocol: transport.UDP})
	if err != nil {
		t.Fatal(err)
	}
	without := newFullRig(t, server.Config{SureStream: true, FEC: false}, netsim.AccessDSLCable, lossy)
	stWithout, err := without.play(t, player.Config{Protocol: transport.UDP})
	if err != nil {
		t.Fatal(err)
	}
	// NACK still recovers most loss; FEC should nonetheless strictly help.
	if stWith.FramesCorrupted > stWithout.FramesCorrupted {
		t.Fatalf("FEC made corruption worse: %d vs %d", stWith.FramesCorrupted, stWithout.FramesCorrupted)
	}
}

func TestRebufferOnCongestionEpoch(t *testing.T) {
	r := newFullRig(t, server.Config{SureStream: false}, netsim.AccessDSLCable,
		netsim.Route{OneWayDelay: 40 * time.Millisecond, CapacityKbps: 500, CongestionMean: 0.05, CongestionVar: 0.02})
	// Throttle the path to a trickle mid-clip.
	r.clock.AtHandler(20*time.Second, fireFunc(func() { r.net.SetCongestionMean("srv", "cli", 0.93, 0.01) }))
	st, err := r.play(t, player.Config{Protocol: transport.UDP, PlayFor: 50 * time.Second})
	if err != nil {
		t.Fatalf("session error: %v", err)
	}
	if st.Rebuffers == 0 && st.JitterMs < 100 {
		t.Fatalf("starving the path had no visible effect: %+v", st)
	}
}

func TestTimelineMonotoneAndPopulated(t *testing.T) {
	r := newFullRig(t, server.Config{SureStream: true}, netsim.AccessDSLCable,
		netsim.Route{OneWayDelay: 30 * time.Millisecond})
	st, err := r.play(t, player.Config{Protocol: transport.UDP, PlayFor: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Timeline) < 20 {
		t.Fatalf("timeline too sparse: %d points", len(st.Timeline))
	}
	for i := 1; i < len(st.Timeline); i++ {
		if st.Timeline[i].T <= st.Timeline[i-1].T {
			t.Fatal("timeline not monotone")
		}
	}
	// Early samples (buffering) should carry bandwidth but no frames.
	if st.Timeline[0].Kbps <= 0 {
		t.Fatal("no bandwidth during buffering")
	}
}

func TestEncodedParametersMatchDescription(t *testing.T) {
	r := newFullRig(t, server.Config{SureStream: true}, netsim.AccessT1LAN, netsim.Route{})
	st, err := r.play(t, player.Config{Protocol: transport.UDP, MaxBandwidthKbps: 100})
	if err != nil {
		t.Fatal(err)
	}
	if st.EncodedKbps != 80 {
		t.Fatalf("server should pick the 80 Kbps rung for a 100 Kbps client, got %v", st.EncodedKbps)
	}
	if st.EncodedFPS != 15 {
		t.Fatalf("encoded fps=%v want 15", st.EncodedFPS)
	}
}

func TestShortClipEndsAtEOS(t *testing.T) {
	lib := media.NewLibrary([]*media.Clip{
		media.GenerateClip("rtsp://srv/clip000.rm", "short", media.ContentNews, 15*time.Second, 20, 80, 3),
	})
	r := newFullRig(t, server.Config{SureStream: true, Library: lib}, netsim.AccessDSLCable,
		netsim.Route{OneWayDelay: 20 * time.Millisecond})
	st, err := r.play(t, player.Config{Protocol: transport.UDP, PlayFor: time.Minute})
	if err != nil {
		t.Fatalf("session error: %v", err)
	}
	// The clip is only 15 s long: playout must end well before the 60 s cap.
	if st.PlayDuration > 30*time.Second {
		t.Fatalf("short clip played for %v", st.PlayDuration)
	}
	if st.FramesPlayed == 0 {
		t.Fatal("no frames from short clip")
	}
}

func TestBothProtocolsOnLossyPathStayClose(t *testing.T) {
	route := netsim.Route{OneWayDelay: 50 * time.Millisecond, LossRate: 0.02, CapacityKbps: 700, CongestionMean: 0.2, CongestionVar: 0.08}
	r1 := newFullRig(t, server.Config{SureStream: true, FEC: true}, netsim.AccessDSLCable, route)
	udp, err := r1.play(t, player.Config{Protocol: transport.UDP})
	if err != nil {
		t.Fatal(err)
	}
	r2 := newFullRig(t, server.Config{SureStream: true, FEC: true}, netsim.AccessDSLCable, route)
	tcp, err := r2.play(t, player.Config{Protocol: transport.TCP})
	if err != nil {
		t.Fatal(err)
	}
	// Figure 17/18: the protocols deliver comparable frame rates and
	// bandwidth over a clip. Allow a generous band.
	if udp.MeasuredFPS < tcp.MeasuredFPS*0.5 || udp.MeasuredFPS > tcp.MeasuredFPS*2 {
		t.Fatalf("protocol fps diverged: UDP %.1f vs TCP %.1f", udp.MeasuredFPS, tcp.MeasuredFPS)
	}
}
