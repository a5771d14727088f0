// Congestion: the paper's TCP-friendliness question (Section V, Figures
// 16-18). Streams the same clip over TCP, over UDP with TFRC-style rate
// control, and over unresponsive UDP, across an increasingly congested
// path, then compares the bandwidth each attains. Responsive UDP should
// track TCP; unresponsive UDP keeps blasting — the congestion-collapse
// concern of [FF98].
//
//	go run ./examples/congestion
package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"realtracer/internal/media"
	"realtracer/internal/netsim"
	"realtracer/internal/player"
	"realtracer/internal/ratecontrol"
	"realtracer/internal/server"
	"realtracer/internal/session"
	"realtracer/internal/simclock"
	"realtracer/internal/transport"
)

func main() {
	fmt.Println("bandwidth attained on a shared 500 Kbps path under rising cross traffic")
	fmt.Printf("%-12s %-14s %10s %10s %10s %8s\n", "congestion", "flavor", "kbps", "fps", "jitter", "loss")
	for _, congestion := range []float64{0.1, 0.3, 0.5, 0.7} {
		for _, flavor := range []string{"tcp", "udp-tfrc", "udp-unresponsive"} {
			st := run(flavor, congestion)
			fmt.Printf("%-12.1f %-14s %10.1f %10.2f %9.0fms %8d\n",
				congestion, flavor, st.MeasuredKbps, st.MeasuredFPS, st.JitterMs, st.FramesLost)
		}
	}
	fmt.Println("\nexpect: udp-tfrc tracks tcp as congestion rises; unresponsive UDP")
	fmt.Println("keeps its send rate and pays in loss — the non-TCP-friendly shape.")
}

func run(flavor string, congestion float64) *player.Stats {
	clock := simclock.New()
	route := netsim.Route{
		OneWayDelay:    50 * time.Millisecond,
		Jitter:         8 * time.Millisecond,
		LossRate:       0.003,
		CapacityKbps:   500,
		CongestionMean: congestion,
		CongestionVar:  0.08,
	}
	n := netsim.New(clock, netsim.StaticRoute(route), 11)
	n.AddHost(netsim.HostConfig{Name: "server", Access: netsim.DefaultAccessProfile(netsim.AccessServer)})
	n.AddHost(netsim.HostConfig{Name: "client", Access: netsim.DefaultAccessProfile(netsim.AccessT1LAN)})

	clip := media.GenerateClip("rtsp://server/clip.rm", "congestion", media.ContentSports,
		5*time.Minute, 20, 350, 3)
	cfg := server.Config{
		Clock:      clock,
		Net:        session.SimNet{Stack: transport.NewStack(n, "server")},
		Library:    media.NewLibrary([]*media.Clip{clip}),
		Rand:       rand.New(rand.NewSource(1)),
		SureStream: true,
		FEC:        true,
	}
	proto := transport.UDP
	switch flavor {
	case "tcp":
		proto = transport.TCP
	case "udp-tfrc":
		// default controller
	case "udp-unresponsive":
		cfg.NewController = func(start float64) ratecontrol.Controller {
			return &ratecontrol.Unresponsive{Kbps: start}
		}
	}
	srv := server.New(cfg)
	if err := srv.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "congestion: %v\n", err)
		os.Exit(1)
	}
	var got *player.Stats
	p := player.New(player.Config{
		Clock:            clock,
		Net:              session.SimNet{Stack: transport.NewStack(n, "client")},
		ControlAddr:      "server:554",
		URL:              clip.URL,
		Protocol:         proto,
		MaxBandwidthKbps: 350,
		PlayFor:          time.Minute,
		Rand:             rand.New(rand.NewSource(2)),
		OnDone:           func(st *player.Stats, err error) { got = st },
	})
	p.Start()
	clock.RunUntil(4 * time.Minute)
	if got == nil {
		fmt.Fprintln(os.Stderr, "congestion: session never finished")
		os.Exit(1)
	}
	return got
}
