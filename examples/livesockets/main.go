// Livesockets: a complete end-to-end session over real OS sockets on
// loopback — the same server and player engines that drive the simulation,
// exchanging real RTSP text messages and binary RDT packets through the
// kernel's TCP and UDP stacks.
//
//	go run ./examples/livesockets
package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"realtracer/internal/media"
	"realtracer/internal/player"
	"realtracer/internal/server"
	"realtracer/internal/session"
	"realtracer/internal/simclock"
	"realtracer/internal/transport"
)

func main() {
	const (
		host        = "127.0.0.1"
		controlPort = 18554
		dataPort    = 18555
		udpPort     = 18556
	)
	clock := simclock.New()
	loop := simclock.NewLoop(clock)
	net := session.RealNet{Host: host, Loop: loop}

	lib := media.GenerateLibrary(host, 2, 5)
	srv := server.New(server.Config{
		Clock:       clock,
		Net:         net,
		Library:     lib,
		Rand:        rand.New(rand.NewSource(1)),
		SureStream:  true,
		FEC:         true,
		ControlPort: controlPort,
		DataTCPPort: dataPort,
		DataUDPPort: udpPort,
	})

	done := 0
	var play func(i int, proto transport.Protocol)
	play = func(i int, proto transport.Protocol) {
		url := lib.Clips[i].URL
		fmt.Printf("streaming %s over real %s sockets...\n", url, proto)
		p := player.New(player.Config{
			Clock:            clock,
			Net:              net,
			ControlAddr:      fmt.Sprintf("%s:%d", host, controlPort),
			ServerUDPAddr:    fmt.Sprintf("%s:%d", host, udpPort),
			URL:              url,
			Protocol:         proto,
			MaxBandwidthKbps: 350,
			PlayFor:          8 * time.Second,
			Preroll:          2 * time.Second,
			Rand:             rand.New(rand.NewSource(2)),
			OnDone: func(st *player.Stats, err error) {
				if err != nil {
					fmt.Printf("  error: %v\n", err)
				}
				fmt.Printf("  got %d frames at %.1f fps, %.0f Kbps, jitter %.0f ms (encoded %.0f Kbps @ %.0f fps)\n",
					st.FramesPlayed, st.MeasuredFPS, st.MeasuredKbps, st.JitterMs, st.EncodedKbps, st.EncodedFPS)
				done++
				switch done {
				case 1:
					play(1, transport.TCP)
				case 2:
					srv.Stop()
					loop.Close()
				}
			},
		})
		p.Start()
	}

	loop.Post(func() {
		if err := srv.Start(); err != nil {
			fmt.Fprintf(os.Stderr, "livesockets: %v\n", err)
			os.Exit(1)
		}
		play(0, transport.UDP)
	})
	loop.Run()
	fmt.Println("both live sessions completed")
}
