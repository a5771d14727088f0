// Adaptation: SureStream in action (paper Section II.C). A broadband client
// streams a multi-rate clip; halfway through, heavy cross traffic hits the
// path, and the server switches to a lower-bandwidth stream, then back when
// the congestion clears. The per-second timeline shows the down- and
// up-switches.
//
//	go run ./examples/adaptation
package main

import (
	"fmt"
	"math/rand"
	"os"
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

// crossTraffic is a scheduled change of the server-to-client path's cross
// traffic: the clock runs typed handlers, not closures.
type crossTraffic struct {
	n    *netsim.Network
	mean float64
	note string
}

func (x *crossTraffic) Fire(time.Duration) {
	x.n.SetCongestionMean("server", "client", x.mean, 0.05)
	fmt.Println(x.note)
}

func main() {
	clock := simclock.New()
	route := netsim.Route{
		OneWayDelay:    40 * time.Millisecond,
		Jitter:         6 * time.Millisecond,
		LossRate:       0.002,
		CapacityKbps:   600,
		CongestionMean: 0.1,
		CongestionVar:  0.05,
	}
	n := netsim.New(clock, netsim.StaticRoute(route), 21)
	n.AddHost(netsim.HostConfig{Name: "server", Access: netsim.DefaultAccessProfile(netsim.AccessServer)})
	n.AddHost(netsim.HostConfig{Name: "client", Access: netsim.DefaultAccessProfile(netsim.AccessDSLCable)})

	clip := media.GenerateClip("rtsp://server/clip.rm", "adaptation", media.ContentMovie,
		5*time.Minute, 20, 350, 9)
	srv := server.New(server.Config{
		Clock:      vclock.Sim{C: clock},
		Net:        session.SimNet{Stack: transport.NewStack(n, "server")},
		Library:    media.NewLibrary([]*media.Clip{clip}),
		Rand:       rand.New(rand.NewSource(1)),
		SureStream: true,
		FEC:        true,
	})
	if err := srv.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "adaptation: %v\n", err)
		os.Exit(1)
	}

	// A congestion epoch from t=40s to t=80s squeezes the path hard.
	clock.AtHandler(40*time.Second, &crossTraffic{n, 0.85, "t=40s: heavy cross traffic begins"})
	clock.AtHandler(80*time.Second, &crossTraffic{n, 0.1, "t=80s: cross traffic clears"})

	var got *player.Stats
	p := player.New(player.Config{
		Clock:            vclock.Sim{C: clock},
		Net:              session.SimNet{Stack: transport.NewStack(n, "client")},
		ControlAddr:      "server:554",
		URL:              clip.URL,
		Protocol:         transport.UDP,
		MaxBandwidthKbps: 350,
		PlayFor:          2 * time.Minute,
		Rand:             rand.New(rand.NewSource(2)),
		OnDone:           func(st *player.Stats, err error) { got = st },
	})
	p.Start()
	clock.RunUntil(5 * time.Minute)
	if got == nil {
		fmt.Fprintln(os.Stderr, "adaptation: session never finished")
		os.Exit(1)
	}

	fmt.Println("\nper-5s bandwidth and frame rate:")
	for i, pt := range got.Timeline {
		if i%5 != 0 {
			continue
		}
		fmt.Printf("  t=%4.0fs  %7.1f Kbps  %4.1f fps\n", pt.T.Seconds(), pt.Kbps, pt.FPS)
	}
	fmt.Printf("\nSureStream switches observed by the player: %d\n", got.Switches)
	fmt.Printf("frames played=%d, rebuffers=%d, final measured %.0f Kbps @ %.1f fps\n",
		got.FramesPlayed, got.Rebuffers, got.MeasuredKbps, got.MeasuredFPS)
	if got.Switches >= 2 {
		fmt.Println("the stream stepped down under congestion and recovered after — SureStream working as described")
	}
}
