// Package core is the library's front door: it runs the full RealTracer
// measurement study (the paper's primary contribution is the methodology —
// instrumented player, wide-area campaign, user-centric analysis), produces
// every evaluation figure from the resulting trace, and runs the
// single-session experiments such as the Figure-1 buffering timeline.
package core

import (
	"fmt"
	"time"

	"realtracer/internal/campaign"
	"realtracer/internal/detrand"
	"realtracer/internal/figures"
	"realtracer/internal/media"
	"realtracer/internal/netsim"
	"realtracer/internal/player"
	"realtracer/internal/server"
	"realtracer/internal/session"
	"realtracer/internal/simclock"
	"realtracer/internal/trace"
	"realtracer/internal/transport"
)

// RunCampaignAggregates executes the campaign with a private
// figures.Aggregates as each scenario's sink (no records retained
// anywhere), and the per-scenario partials are merged in
// scenario input order — so the merged aggregates are identical no matter
// how many workers the campaign ran on. The per-scenario partials remain
// available via the summary's ScenarioResult.Sink fields.
func RunCampaignAggregates(scenarios []campaign.Scenario, cfg campaign.Config) (*figures.Aggregates, *campaign.Summary) {
	cfg.NewSink = func() trace.Sink { return figures.NewAggregates() }
	sum := campaign.Run(scenarios, cfg)
	merged := figures.NewAggregates()
	for _, r := range sum.Results {
		if part, ok := r.Sink.(*figures.Aggregates); ok && r.Err == nil {
			merged.Merge(part)
		}
	}
	return merged, sum
}

// AllFigures regenerates every record-driven figure (5-28) from a trace:
// one aggregate pass over the records, then every generator off the shared
// aggregates.
func AllFigures(recs []*trace.Record) []figures.Figure {
	agg := figures.Aggregate(recs)
	gens := figures.All()
	out := make([]figures.Figure, 0, len(gens))
	for _, g := range gens {
		out = append(out, g.Agg(agg))
	}
	return out
}

// SessionOptions parameterizes a single simulated streaming session between
// one client and one server, used by the timeline and ablation experiments.
type SessionOptions struct {
	// Protocol for the data connection.
	Protocol transport.Protocol
	// ClientAccess is the end-host class.
	ClientAccess netsim.AccessClass
	// Route shapes the wide-area path (zero value: clean LAN-like).
	Route netsim.Route
	// ClipKbps selects the clip's top encoding (default 225), which is also
	// the player's bandwidth preference; the floor is 20 kbps.
	ClipKbps float64
	// PlayFor bounds playout (default 70 s, matching Figure 1's span).
	PlayFor time.Duration
	// CPU is the client machine class (default Pentium III).
	CPU player.CPUProfile
	// FEC toggles on the server, Scalable Video on the player (both default
	// on via RunSession; SureStream is always on).
	DisableFEC           bool
	DisableScalableVideo bool
	// Live streams the clip as a real-time feed (no ahead-of-realtime
	// delivery) — the paper's future-work experiment.
	Live bool
	// Seed drives all randomness.
	Seed int64
}

// RunSession plays one clip start-to-finish on the simulator and returns
// the player statistics (including the per-second Timeline).
func RunSession(opt SessionOptions) (*player.Stats, error) {
	if opt.PlayFor <= 0 {
		opt.PlayFor = 70 * time.Second
	}
	if opt.ClipKbps <= 0 {
		opt.ClipKbps = 225
	}
	serverRng, playerRng := detrand.Plain(opt.Seed+2), detrand.Plain(opt.Seed+3)
	clock := simclock.New()
	n := netsim.New(clock, netsim.StaticRoute(opt.Route), opt.Seed)
	n.AddHost(netsim.HostConfig{Name: "server", Access: netsim.DefaultAccessProfile(netsim.AccessServer)})
	n.AddHost(netsim.HostConfig{Name: "client", Access: netsim.DefaultAccessProfile(opt.ClientAccess)})

	clip := media.GenerateClip("rtsp://server/clip.rm", "session-clip", media.ContentNews,
		5*time.Minute, 20, opt.ClipKbps, opt.Seed+1)
	clip.Live = opt.Live
	srv := server.New(server.Config{
		Clock:      clock,
		Net:        session.SimNet{Stack: transport.NewStack(n, "server")},
		Library:    media.NewLibrary([]*media.Clip{clip}),
		Rand:       &serverRng,
		SureStream: true,
		FEC:        !opt.DisableFEC,
	})
	if err := srv.Start(); err != nil {
		return nil, err
	}
	var got *player.Stats
	var gotErr error
	p := player.New(player.Config{
		Clock:                clock,
		Net:                  session.SimNet{Stack: transport.NewStack(n, "client")},
		ControlAddr:          "server:554",
		URL:                  clip.URL,
		Protocol:             opt.Protocol,
		MaxBandwidthKbps:     opt.ClipKbps,
		PlayFor:              opt.PlayFor,
		CPU:                  opt.CPU,
		DisableScalableVideo: opt.DisableScalableVideo,
		Rand:                 &playerRng,
		OnDone: func(st *player.Stats, err error) {
			got, gotErr = st, err
		},
	})
	p.Start()
	clock.RunUntil(opt.PlayFor + 3*time.Minute)
	if got == nil {
		return nil, fmt.Errorf("core: session never completed")
	}
	return got, gotErr
}

// Fig01Timeline reproduces Figure 1: the buffering and playout of one
// RealVideo clip — coded vs. current bandwidth and frame rate over ~70 s.
func Fig01Timeline(seed int64) (figures.Figure, *player.Stats, error) {
	st, err := RunSession(SessionOptions{
		Protocol:     transport.UDP,
		ClientAccess: netsim.AccessDSLCable,
		Route: netsim.Route{
			OneWayDelay:    40 * time.Millisecond,
			Jitter:         8 * time.Millisecond,
			LossRate:       0.005,
			CapacityKbps:   900,
			CongestionMean: 0.2,
			CongestionVar:  0.1,
		},
		ClipKbps: 225,
		PlayFor:  70 * time.Second,
		Seed:     seed,
	})
	if err != nil {
		return figures.Figure{}, st, err
	}
	f := figures.Figure{
		ID:    "fig01",
		Title: "Buffering and playout of a RealVideo clip",
		Kind:  figures.KindSeries,
	}
	var bw, fps figures.Series
	bw.Label, fps.Label = "Current Bandwidth", "Current Frame Rate"
	for _, pt := range st.Timeline {
		bw.X = append(bw.X, pt.T.Seconds())
		bw.Y = append(bw.Y, pt.Kbps)
		fps.X = append(fps.X, pt.T.Seconds())
		fps.Y = append(fps.Y, pt.FPS)
	}
	coded := figures.Series{Label: "Coded Bandwidth", X: bw.X}
	codedFPS := figures.Series{Label: "Coded Frame Rate", X: bw.X}
	for range bw.X {
		coded.Y = append(coded.Y, st.EncodedKbps)
		codedFPS.Y = append(codedFPS.Y, st.EncodedFPS)
	}
	f.Series = []figures.Series{coded, bw, codedFPS, fps}
	f.Notes = append(f.Notes,
		fmt.Sprintf("initial buffering %.1f s (paper: ~13 s flat region before playout)", st.BufferingTime.Seconds()),
		fmt.Sprintf("encoded %g Kbps @ %g fps; measured %.0f Kbps @ %.1f fps",
			st.EncodedKbps, st.EncodedFPS, st.MeasuredKbps, st.MeasuredFPS),
		"frame rate steadier than bandwidth once playout begins (buffer smoothing)")
	return f, st, nil
}
