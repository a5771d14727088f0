package player_test

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"realtracer/internal/media"
	"realtracer/internal/player"
	"realtracer/internal/server"
	"realtracer/internal/session"
	"realtracer/internal/simclock"
	"realtracer/internal/transport"
)

// ephemeralPorts reserves n distinct ports by binding 127.0.0.1:0 (the OS
// hands out free ephemeral ports), then releases them for the server to
// rebind. All listeners stay open until every port is drawn so the kernel
// cannot hand the same port out twice.
func ephemeralPorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, 0, n)
	listeners := make([]net.Listener, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		listeners = append(listeners, ln)
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	for _, ln := range listeners {
		ln.Close()
	}
	return ports
}

// sessionOutcome is one live session's result, delivered off the loop.
type sessionOutcome struct {
	proto transport.Protocol
	stats *player.Stats
	err   error
}

// TestLiveSocketsEndToEnd is the promoted examples/livesockets: a complete
// server/player exchange over real OS sockets on loopback — real RTSP text
// on a kernel TCP control connection, real binary RDT data over kernel UDP
// and then kernel TCP — using ephemeral ports so it runs anywhere,
// including CI under -race. The engines themselves stay single-threaded on
// the event loop; this test is exactly the concurrency surface the race
// detector should see.
func TestLiveSocketsEndToEnd(t *testing.T) {
	const host = "127.0.0.1"
	ports := ephemeralPorts(t, 3)
	controlPort, dataPort, udpPort := ports[0], ports[1], ports[2]

	clock := simclock.New()
	loop := simclock.NewLoop(clock)
	netw := session.RealNet{Host: host, Loop: loop}

	lib := media.GenerateLibrary(host, 2, 5)
	srv := server.New(server.Config{
		Clock:       clock,
		Net:         netw,
		Library:     lib,
		Rand:        rand.New(rand.NewSource(1)),
		SureStream:  true,
		FEC:         true,
		ControlPort: controlPort,
		DataTCPPort: dataPort,
		DataUDPPort: udpPort,
	})

	var mu sync.Mutex
	var outcomes []sessionOutcome
	finish := func(o sessionOutcome) bool {
		mu.Lock()
		defer mu.Unlock()
		outcomes = append(outcomes, o)
		return len(outcomes) == 2
	}

	var startErr error
	play := func(i int, proto transport.Protocol) {
		p := player.New(player.Config{
			Clock:            clock,
			Net:              netw,
			ControlAddr:      fmt.Sprintf("%s:%d", host, controlPort),
			ServerUDPAddr:    fmt.Sprintf("%s:%d", host, udpPort),
			URL:              lib.Clips[i].URL,
			Protocol:         proto,
			MaxBandwidthKbps: 350,
			PlayFor:          3 * time.Second,
			Preroll:          time.Second,
			Rand:             rand.New(rand.NewSource(2)),
			OnDone: func(st *player.Stats, err error) {
				if finish(sessionOutcome{proto: proto, stats: st, err: err}) {
					// OnDone fires as soon as playout ends; give the final
					// TEARDOWN a beat to cross the kernel before shutdown.
					clock.AfterHandler(500*time.Millisecond, fireFunc(func() {
						srv.Stop()
						loop.Close()
					}))
				}
			},
		})
		p.Start()
	}

	// Both sessions run concurrently: a UDP player and a TCP player against
	// the same live server, sharing its control and data ports.
	loop.Post(func() {
		if err := srv.Start(); err != nil {
			startErr = err
			loop.Close()
			return
		}
		play(0, transport.UDP)
		play(1, transport.TCP)
	})

	// Watchdog: the loop must drain on its own well before this fires.
	watchdog := time.AfterFunc(60*time.Second, func() {
		mu.Lock()
		defer mu.Unlock()
		t.Errorf("live sessions stuck: %d of 2 finished", len(outcomes))
		loop.Post(func() {
			srv.Stop()
			loop.Close()
		})
	})
	defer watchdog.Stop()

	loop.Run() // blocks until both sessions finish (or the watchdog fires)

	if startErr != nil {
		t.Fatalf("server start on ephemeral ports: %v", startErr)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(outcomes) != 2 {
		t.Fatalf("finished %d of 2 live sessions", len(outcomes))
	}
	seen := map[transport.Protocol]bool{}
	for _, o := range outcomes {
		if o.err != nil {
			t.Fatalf("%v session failed: %v", o.proto, o.err)
		}
		st := o.stats
		if st == nil || st.FramesPlayed == 0 {
			t.Fatalf("%v session played no frames: %+v", o.proto, st)
		}
		if st.MeasuredKbps <= 0 || st.MeasuredFPS <= 0 {
			t.Fatalf("%v session measured nothing: %.1f Kbps %.1f fps", o.proto, st.MeasuredKbps, st.MeasuredFPS)
		}
		if st.Protocol != o.proto {
			t.Fatalf("negotiated %v, asked for %v", st.Protocol, o.proto)
		}
		seen[o.proto] = true
	}
	if !seen[transport.UDP] || !seen[transport.TCP] {
		t.Fatalf("expected one UDP and one TCP session, got %v", outcomes)
	}
	describes, _, played, torndown := srv.Counters()
	if describes < 2 || played < 2 || torndown < 2 {
		t.Fatalf("server counters: describes=%d played=%d torndown=%d", describes, played, torndown)
	}
}
