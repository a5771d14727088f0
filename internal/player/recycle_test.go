package player_test

import (
	"fmt"
	"testing"
	"time"

	"realtracer/internal/netsim"
	"realtracer/internal/player"
	"realtracer/internal/transport"
)

// lossyRoute loses enough packets that a session exercises its loss
// machinery — FEC repair groups, the NACK window, retransmissions — so the
// recycle tests below cover a populated state graph, not an idle one.
func lossyRoute() netsim.Route {
	return netsim.Route{OneWayDelay: 40 * time.Millisecond, Jitter: 5 * time.Millisecond, LossRate: 0.02}
}

func recycleConfig(r *rig, onDone func(*player.Stats, error)) player.Config {
	return player.Config{
		Clock:            r.clock,
		Net:              r.cNet,
		ControlAddr:      "srv:554",
		URL:              "rtsp://srv/clip000.rm",
		Protocol:         transport.UDP,
		MaxBandwidthKbps: 300,
		CPU:              player.PCPentiumIII,
		OnDone:           onDone,
	}
}

// TestRecycledPlayerMatchesFresh is the recycle-isolation check behind the
// tracer's player reuse: after a full lossy session, Reset must leave no
// trace of the predecessor — no FEC group, retransmit-window entry, NACK
// counter or sequence floor. Two identically-seeded worlds play the same
// first session, then one recycles the player and the other constructs a
// fresh one; if any predecessor state survived the Reset, the recycled
// session's stats diverge from the fresh player's.
func TestRecycledPlayerMatchesFresh(t *testing.T) {
	// Reset reuses the Stats record and its slices in place, so outcomes
	// must be frozen to a string the moment OnDone delivers them.
	type outcome struct {
		repr   string
		frames int
		err    error
	}
	snap := func(dst *outcome) func(*player.Stats, error) {
		return func(st *player.Stats, err error) {
			*dst = outcome{repr: fmt.Sprintf("%+v", *st), frames: st.FramesPlayed, err: err}
		}
	}
	run := func(recycle bool) (first, second outcome) {
		r := newRig(t, netsim.AccessDSLCable, lossyRoute())
		p := player.New(recycleConfig(r, snap(&first)))
		p.Start()
		r.clock.RunUntil(r.clock.Now() + 5*time.Minute)
		if first.repr == "" {
			t.Fatal("first play never finished")
		}
		cfg := recycleConfig(r, snap(&second))
		if recycle {
			p.Reset(cfg)
			p.Start()
		} else {
			player.New(cfg).Start()
		}
		r.clock.RunUntil(r.clock.Now() + 5*time.Minute)
		if second.repr == "" {
			t.Fatal("second play never finished")
		}
		return first, second
	}
	firstA, recycled := run(true)
	firstB, fresh := run(false)
	if firstA.frames < 100 {
		t.Fatalf("first play too short to populate session state: %s", firstA.repr)
	}
	// The rigs are identical until the second play begins; if the first
	// plays already differ the comparison below proves nothing.
	if firstA.repr != firstB.repr {
		t.Fatalf("identically-seeded rigs diverged on the first play:\n%s\n%s", firstA.repr, firstB.repr)
	}
	if (recycled.err == nil) != (fresh.err == nil) {
		t.Fatalf("recycled err=%v, fresh err=%v", recycled.err, fresh.err)
	}
	if recycled.repr != fresh.repr {
		t.Errorf("recycled player diverged from a fresh one — predecessor state leaked:\nrecycled: %s\nfresh:    %s", recycled.repr, fresh.repr)
	}
}

// TestAbortedPlayerRecyclesAfterDeparture is the mid-stream abandonment
// lifecycle at player level, exactly as the open-loop depart path drives
// it: abort with the clip still streaming, tear the host off the network,
// reap the server session. Every timer the dead incarnation armed must be
// inert — the generation-checked handles fire into a bumped epoch — and
// the same player object must then serve a clean session for the host's
// next incarnation.
func TestAbortedPlayerRecyclesAfterDeparture(t *testing.T) {
	r := newRig(t, netsim.AccessDSLCable, lossyRoute())
	aborted := false
	p := player.New(recycleConfig(r, func(*player.Stats, error) { aborted = true }))
	p.Start()
	r.clock.RunUntil(r.clock.Now() + 15*time.Second) // well into streaming
	p.Abort()
	r.net.RemoveHost("cli")
	r.srv.DropClient("cli")
	// Drain far past every deadline the dead incarnation could have armed:
	// frame pacing, NACK retries, idle watchdog, end-of-play. Inert means
	// no completion callback and no send from the removed host.
	r.clock.RunUntil(r.clock.Now() + 10*time.Minute)
	if aborted {
		t.Fatal("aborted session reported completion; a stale timer survived the abort")
	}

	r.net.AddHost(netsim.HostConfig{Name: "cli", Access: netsim.DefaultAccessProfile(netsim.AccessDSLCable)})
	var st *player.Stats
	var err error
	p.Reset(recycleConfig(r, func(s *player.Stats, e error) { st, err = s, e }))
	p.Start()
	r.clock.RunUntil(r.clock.Now() + 5*time.Minute)
	if st == nil {
		t.Fatalf("recycled session never finished; events fired: %d", r.clock.Fired())
	}
	if err != nil || st.Failed {
		t.Fatalf("recycled session failed: err=%v stats=%+v", err, st)
	}
	if st.FramesPlayed < 100 {
		t.Fatalf("recycled session barely played: %+v", st)
	}
}
