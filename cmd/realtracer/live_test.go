package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"realtracer/internal/media"
	"realtracer/internal/player"
	"realtracer/internal/server"
	"realtracer/internal/session"
	"realtracer/internal/simclock"
	"realtracer/internal/trace"
	"realtracer/internal/transport"
)

// TestLiveRecordCarriesItsTimeSpan plays one clip the way the command does,
// over loopback sockets from an in-process server, and reads its record back
// from the CSV: it names the live client and the clip, carries what the
// player measured, and brackets the clip with its start and end on the
// loop's clock, so start_s and end_s are nonzero and at least the playout
// apart.
func TestLiveRecordCarriesItsTimeSpan(t *testing.T) {
	const host = "127.0.0.1"
	// Three free ports: bound by the kernel, then let go for the server.
	var ports [3]int
	for i := range ports {
		ln, err := net.Listen("tcp", host+":0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		ports[i] = ln.Addr().(*net.TCPAddr).Port
		ln.Close()
	}

	clock := simclock.New()
	loop := simclock.NewLoop(clock)
	nw := session.RealNet{Host: host, Loop: loop}
	srv := server.New(server.Config{
		Clock:       clock,
		Net:         nw,
		Library:     media.GenerateLibrary(host, 1, 7),
		Rand:        rand.New(rand.NewSource(7)),
		ControlPort: ports[0],
		DataTCPPort: ports[1],
		DataUDPPort: ports[2],
	})
	loop.Post(func() {
		if err := srv.Start(); err != nil {
			t.Errorf("server start: %v", err)
		}
	})
	const playFor = time.Second
	control := fmt.Sprintf("%s:%d", host, ports[0])
	recs := play(loop, player.Config{
		Clock:            clock,
		Net:              nw,
		ControlAddr:      control,
		ServerUDPAddr:    fmt.Sprintf("%s:%d", host, ports[2]),
		Protocol:         transport.UDP,
		MaxBandwidthKbps: 350,
		PlayFor:          playFor,
		Preroll:          time.Second,
	}, 1)
	srv.Stop() // the loop has stopped: nothing else runs on it now

	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("%d records for one clip", len(got))
	}
	r := got[0]
	if r.User != "live" || r.Server != control || r.ClipURL != "rtsp://"+host+"/clip000.rm" || r.Protocol != "UDP" {
		t.Errorf("record names user %q, server %q, clip %q over %s", r.User, r.Server, r.ClipURL, r.Protocol)
	}
	if r.Failed || r.Unavailable || r.FramesPlayed == 0 {
		t.Fatalf("the clip did not play: failed %v (%s), unavailable %v, %d frames", r.Failed, r.FailReason, r.Unavailable, r.FramesPlayed)
	}
	if r.StartSec <= 0 || r.EndSec-r.StartSec < playFor.Seconds() {
		t.Errorf("start_s %g, end_s %g: want a nonzero start and at least the %v playout between them", r.StartSec, r.EndSec, playFor)
	}
}
