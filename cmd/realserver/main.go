// Command realserver runs the streaming server over real OS sockets on
// localhost: RTSP control on -control, TCP data on -data, UDP data on -udp.
// Point cmd/realtracer at it to stream over the loopback interface.
//
// Usage:
//
//	realserver [-host 127.0.0.1] [-control 8554] [-data 8555] [-udp 8556]
//	           [-clips 8] [-seed 7] [-unavailability 0.1]
//
// -clips must be at least 1 and -unavailability a probability in [0, 1];
// anything else is refused before a port is bound.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"

	"realtracer/internal/media"
	"realtracer/internal/server"
	"realtracer/internal/session"
	"realtracer/internal/simclock"
)

func main() {
	host := flag.String("host", "127.0.0.1", "bind address")
	control := flag.Int("control", 8554, "RTSP control port")
	data := flag.Int("data", 8555, "TCP data port")
	udp := flag.Int("udp", 8556, "UDP data port")
	clips := flag.Int("clips", 8, "number of synthetic clips to serve")
	seed := flag.Int64("seed", 7, "clip-library seed")
	unavailability := flag.Float64("unavailability", 0.1, "clip unavailability probability")
	flag.Parse()
	if msg := flagError(*clips, *unavailability); msg != "" {
		fmt.Fprintf(os.Stderr, "realserver: %s\n", msg)
		os.Exit(2)
	}

	clock := simclock.New()
	loop := simclock.NewLoop(clock)
	lib := media.GenerateLibrary(*host, *clips, *seed)
	srv := server.New(server.Config{
		Clock:          clock,
		Net:            session.RealNet{Host: *host, Loop: loop},
		Library:        lib,
		Rand:           rand.New(rand.NewSource(*seed)),
		Unavailability: *unavailability,
		SureStream:     true,
		FEC:            true,
		ControlPort:    *control,
		DataTCPPort:    *data,
		DataUDPPort:    *udp,
	})
	loop.Post(func() {
		if err := srv.Start(); err != nil {
			fmt.Fprintf(os.Stderr, "realserver: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("realserver: serving %d clips on %s (control :%d, tcp-data :%d, udp-data :%d)\n",
			len(lib.Clips), *host, *control, *data, *udp)
		for _, c := range lib.Clips {
			fmt.Printf("  %s (%s, %v, max %g Kbps)\n", c.URL, c.Content, c.Duration, c.MaxEncoding().TotalKbps)
		}
	})

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	go func() {
		<-sig
		loop.Post(func() {
			srv.Stop()
			loop.Close()
		})
	}()
	loop.Run()
}

// flagError refuses a library the server could not serve: no clips, or an
// unavailability that is not a probability (NaN included).
func flagError(clips int, unavailability float64) string {
	if clips < 1 {
		return fmt.Sprintf("-clips %d: want at least 1", clips)
	}
	if !(unavailability >= 0 && unavailability <= 1) {
		return fmt.Sprintf("-unavailability %v: want a probability in [0, 1]", unavailability)
	}
	return ""
}
