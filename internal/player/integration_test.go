package player_test

import (
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

// rig wires one server and one client host over the simulator.
type rig struct {
	clock *simclock.Clock
	net   *netsim.Network
	srv   *server.Server
	cNet  session.SimNet
}

func newRig(t *testing.T, clientAccess netsim.AccessClass, route netsim.Route) *rig {
	t.Helper()
	clock := simclock.New()
	n := netsim.New(clock, netsim.StaticRoute(route), 42)
	n.AddHost(netsim.HostConfig{Name: "srv", Access: netsim.DefaultAccessProfile(netsim.AccessServer)})
	n.AddHost(netsim.HostConfig{Name: "cli", Access: netsim.DefaultAccessProfile(clientAccess)})

	lib := media.NewLibrary([]*media.Clip{
		media.GenerateClip("rtsp://srv/clip000.rm", "test", media.ContentNews, 5*time.Minute, 20, 350, 7),
	})
	srv := server.New(server.Config{
		Clock:      clock,
		Net:        session.SimNet{Stack: transport.NewStack(n, "srv")},
		Library:    lib,
		Rand:       rand.New(rand.NewSource(1)),
		SureStream: true,
		FEC:        true,
	})
	if err := srv.Start(); err != nil {
		t.Fatalf("server start: %v", err)
	}
	return &rig{
		clock: clock,
		net:   n,
		srv:   srv,
		cNet:  session.SimNet{Stack: transport.NewStack(n, "cli")},
	}
}

func (r *rig) play(t *testing.T, proto transport.Protocol, maxKbps float64) (*player.Stats, error) {
	t.Helper()
	var got *player.Stats
	var gotErr error
	p := player.New(player.Config{
		Clock:            r.clock,
		Net:              r.cNet,
		ControlAddr:      "srv:554",
		URL:              "rtsp://srv/clip000.rm",
		Protocol:         proto,
		MaxBandwidthKbps: maxKbps,
		CPU:              player.PCPentiumIII,
		OnDone: func(st *player.Stats, err error) {
			got = st
			gotErr = err
		},
	})
	p.Start()
	r.clock.RunUntil(r.clock.Now() + 5*time.Minute)
	if got == nil {
		t.Fatalf("player never finished (state stuck); events fired: %d", r.clock.Fired())
	}
	return got, gotErr
}

func TestEndToEndUDPBroadband(t *testing.T) {
	r := newRig(t, netsim.AccessDSLCable, netsim.Route{
		OneWayDelay: 40 * time.Millisecond,
		Jitter:      5 * time.Millisecond,
		LossRate:    0.005,
	})
	st, err := r.play(t, transport.UDP, 300)
	if err != nil {
		t.Fatalf("session error: %v (stats %+v)", err, st)
	}
	if st.FramesPlayed < 100 {
		t.Errorf("too few frames played: %d (stats %+v)", st.FramesPlayed, st)
	}
	if st.MeasuredFPS < 5 {
		t.Errorf("broadband UDP should exceed 5 fps, got %.2f", st.MeasuredFPS)
	}
	if st.MeasuredKbps < 50 {
		t.Errorf("broadband UDP should see >50 Kbps, got %.1f", st.MeasuredKbps)
	}
	if st.EncodedKbps == 0 || st.EncodedFPS == 0 {
		t.Errorf("encoded parameters not captured: %+v", st)
	}
}

func TestEndToEndTCPBroadband(t *testing.T) {
	r := newRig(t, netsim.AccessDSLCable, netsim.Route{
		OneWayDelay: 40 * time.Millisecond,
		Jitter:      5 * time.Millisecond,
		LossRate:    0.005,
	})
	st, err := r.play(t, transport.TCP, 300)
	if err != nil {
		t.Fatalf("session error: %v (stats %+v)", err, st)
	}
	if st.FramesPlayed < 100 {
		t.Errorf("too few frames played: %d (stats %+v)", st.FramesPlayed, st)
	}
	if st.Protocol != transport.TCP {
		t.Errorf("protocol mislabeled: %v", st.Protocol)
	}
}

func TestEndToEndModem(t *testing.T) {
	r := newRig(t, netsim.AccessModem, netsim.Route{
		OneWayDelay: 60 * time.Millisecond,
		Jitter:      10 * time.Millisecond,
		LossRate:    0.01,
	})
	st, err := r.play(t, transport.UDP, 34)
	if err != nil {
		t.Fatalf("session error: %v (stats %+v)", err, st)
	}
	if st.MeasuredKbps > 60 {
		t.Errorf("a 56k modem cannot receive %.1f Kbps", st.MeasuredKbps)
	}
	if st.EncodedKbps > 34 {
		t.Errorf("server ignored client bandwidth cap: encoded %.0f Kbps", st.EncodedKbps)
	}
}
