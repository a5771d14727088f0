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
	"realtracer/internal/vclock"
)

// playClip runs one clip (live or pre-recorded) through a fresh rig.
func playClip(t *testing.T, clip *media.Clip, route netsim.Route) *player.Stats {
	t.Helper()
	clock := simclock.New()
	n := netsim.New(clock, netsim.StaticRoute(route), 13)
	n.AddHost(netsim.HostConfig{Name: "srv", Access: netsim.DefaultAccessProfile(netsim.AccessServer)})
	n.AddHost(netsim.HostConfig{Name: "cli", Access: netsim.DefaultAccessProfile(netsim.AccessDSLCable)})
	srv := server.New(server.Config{
		Clock: vclock.Sim{C: clock}, Net: session.SimNet{Stack: transport.NewStack(n, "srv")},
		Library: media.NewLibrary([]*media.Clip{clip}),
		Rand:    rand.New(rand.NewSource(1)), SureStream: true, FEC: true,
	})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	var got *player.Stats
	p := player.New(player.Config{
		Clock: vclock.Sim{C: clock}, Net: session.SimNet{Stack: transport.NewStack(n, "cli")},
		ControlAddr: "srv:554", URL: clip.URL, Protocol: transport.UDP,
		MaxBandwidthKbps: 300, PlayFor: time.Minute,
		Rand:   rand.New(rand.NewSource(2)),
		OnDone: func(st *player.Stats, err error) { got = st },
	})
	p.Start()
	clock.RunUntil(5 * time.Minute)
	if got == nil {
		t.Fatal("session never finished")
	}
	return got
}

// TestLiveContentDiffersFromPrerecorded reproduces the future-work contrast
// the paper cites from [LH01]: live feeds cannot be buffered ahead, so the
// same network conditions yield thinner buffers and choppier playout than
// pre-recorded content.
func TestLiveContentDiffersFromPrerecorded(t *testing.T) {
	route := netsim.Route{
		OneWayDelay:    50 * time.Millisecond,
		Jitter:         15 * time.Millisecond,
		LossRate:       0.01,
		CapacityKbps:   600,
		CongestionMean: 0.3,
		CongestionVar:  0.15,
	}
	pre := media.GenerateClip("rtsp://srv/clip000.rm", "vod", media.ContentNews, 4*time.Minute, 20, 225, 9)
	liveClip := media.GenerateLiveClip("rtsp://srv/clip000.rm", "live", media.ContentNews, 4*time.Minute, 20, 225, 9)

	vod := playClip(t, pre, route)
	live := playClip(t, liveClip, route)

	if vod.FramesPlayed == 0 || live.FramesPlayed == 0 {
		t.Fatalf("sessions empty: vod=%d live=%d", vod.FramesPlayed, live.FramesPlayed)
	}
	// The live session runs on a near-empty buffer: under the same
	// congested path it must be at least as disrupted as VOD, and
	// measurably so on at least one axis.
	if live.JitterMs < vod.JitterMs && live.Rebuffers <= vod.Rebuffers {
		t.Fatalf("live (jitter %.0f, rebuf %d) should not be smoother than VOD (jitter %.0f, rebuf %d)",
			live.JitterMs, live.Rebuffers, vod.JitterMs, vod.Rebuffers)
	}
}

// TestLivePacingNeverRunsAhead checks the structural property: a live
// session's data cannot arrive ahead of realtime (beyond the encoder's
// capture buffer), while VOD bursts well ahead.
func TestLivePacingNeverRunsAhead(t *testing.T) {
	route := netsim.Route{OneWayDelay: 20 * time.Millisecond}
	liveClip := media.GenerateLiveClip("rtsp://srv/clip000.rm", "live", media.ContentSports, 3*time.Minute, 20, 225, 9)
	st := playClip(t, liveClip, route)
	// With no ahead-buffering, initial buffering must take roughly the
	// preroll duration at 1x realtime (plus handshakes) — there is no way
	// to fill an 8 s buffer in 3 s.
	if st.BufferingTime < player.DefaultPreroll-2*time.Second {
		t.Fatalf("live buffering %.1fs implies ahead-of-realtime delivery", st.BufferingTime.Seconds())
	}
	pre := media.GenerateClip("rtsp://srv/clip000.rm", "vod", media.ContentSports, 3*time.Minute, 20, 225, 9)
	vod := playClip(t, pre, route)
	if vod.BufferingTime >= st.BufferingTime {
		t.Fatalf("VOD buffering %.1fs should beat live %.1fs (server bursts ahead)",
			vod.BufferingTime.Seconds(), st.BufferingTime.Seconds())
	}
}

func TestLiveFlagAdvertisedInDescribe(t *testing.T) {
	liveClip := media.GenerateLiveClip("u", "live", media.ContentNews, time.Minute, 20, 80, 1)
	d := session.DescFromClip(liveClip)
	var got session.ClipDesc
	if err := session.ParseClipDesc(d.Marshal(), &got); err != nil {
		t.Fatal(err)
	}
	if !got.Live {
		t.Fatal("live flag lost in DESCRIBE round trip")
	}
}
