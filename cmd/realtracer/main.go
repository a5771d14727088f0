// Command realtracer is the live client: it plays clips from a running
// cmd/realserver over real sockets, measuring exactly what the study's
// RealTracer measured — frame rate, bandwidth, jitter, drops — and printing
// a per-clip report. Write the records with -out and feed them to
// cmd/realdata.
//
// Usage:
//
//	realtracer [-server 127.0.0.1:8554] [-udp 127.0.0.1:8556] [-clips 3]
//	           [-proto udp|tcp] [-playfor 20s] [-maxkbps 350] [-out trace.csv]
//
// -proto must be exactly udp or tcp and -clips at least 1; anything else is
// refused before dialing. A -out file that cannot be created or written is
// reported and the command exits non-zero.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"realtracer/internal/netsim"
	"realtracer/internal/player"
	"realtracer/internal/session"
	"realtracer/internal/simclock"
	"realtracer/internal/trace"
	"realtracer/internal/tracer"
	"realtracer/internal/transport"
)

func main() {
	serverAddr := flag.String("server", "127.0.0.1:8554", "server control address")
	udpAddr := flag.String("udp", "127.0.0.1:8556", "server UDP data address")
	clips := flag.Int("clips", 3, "how many clips to play (clip000.rm onward)")
	proto := flag.String("proto", "udp", "data transport: udp or tcp")
	playFor := flag.Duration("playfor", 20*time.Second, "per-clip playout length")
	maxKbps := flag.Float64("maxkbps", 350, "RealPlayer maximum bandwidth preference")
	out := flag.String("out", "", "write records to this CSV file")
	flag.Parse()
	if msg := flagError(*proto, *clips); msg != "" {
		fmt.Fprintf(os.Stderr, "realtracer: %s\n", msg)
		os.Exit(2)
	}

	protocol := transport.UDP
	if *proto == "tcp" {
		protocol = transport.TCP
	}
	var outFile *os.File
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "realtracer: %v\n", err)
			os.Exit(1)
		}
		outFile = f
	}

	clock := simclock.New()
	loop := simclock.NewLoop(clock)
	records := play(loop, player.Config{
		Clock:            clock,
		Net:              session.RealNet{Host: "127.0.0.1", Loop: loop},
		ControlAddr:      *serverAddr,
		ServerUDPAddr:    *udpAddr,
		Protocol:         protocol,
		MaxBandwidthKbps: *maxKbps,
		PlayFor:          *playFor,
	}, *clips)

	if outFile != nil {
		err := trace.WriteCSV(outFile, records)
		if cerr := outFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "realtracer: write %s: %v\n", *out, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d records to %s\n", len(records), *out)
	}
}

// play plays clips clip000.rm onward from the server at cfg.ControlAddr, one
// after another, each with a player configured as cfg; it reports each clip
// as it ends and returns their records. It runs loop, and closes it after
// the last clip.
func play(loop *simclock.Loop, cfg player.Config, clips int) []*trace.Record {
	host := netsim.Addr(cfg.ControlAddr).Host()
	var records []*trace.Record
	var playNext func(i int)
	playNext = func(i int) {
		if i >= clips {
			loop.Close()
			return
		}
		c := cfg
		c.URL = fmt.Sprintf("rtsp://%s/clip%03d.rm", host, i)
		c.Rand = rand.New(rand.NewSource(time.Now().UnixNano()))
		start := cfg.Clock.Now()
		c.OnDone = func(st *player.Stats, err error) {
			report(st, err)
			rec := tracer.RecordOf(st, start, cfg.Clock.Now())
			rec.User, rec.Country, rec.Region, rec.Access = "live", "local", "local", "loopback"
			rec.ClipURL, rec.Server = c.URL, cfg.ControlAddr
			records = append(records, rec)
			playNext(i + 1)
		}
		fmt.Printf("playing %s over %s...\n", c.URL, c.Protocol)
		player.New(c).Start()
	}
	loop.Post(func() { playNext(0) })
	loop.Run()
	return records
}

// flagError refuses what the command would not do as asked: a transport
// other than udp or tcp, or no clips to play.
func flagError(proto string, clips int) string {
	if proto != "udp" && proto != "tcp" {
		return fmt.Sprintf("-proto %q: want udp or tcp", proto)
	}
	if clips < 1 {
		return fmt.Sprintf("-clips %d: want at least 1", clips)
	}
	return ""
}

func report(st *player.Stats, err error) {
	if err != nil {
		fmt.Printf("  session ended: %v\n", err)
	}
	fmt.Printf("  encoded %.0f Kbps @ %.1f fps | measured %.0f Kbps @ %.1f fps | jitter %.0f ms\n",
		st.EncodedKbps, st.EncodedFPS, st.MeasuredKbps, st.MeasuredFPS, st.JitterMs)
	fmt.Printf("  frames: played=%d late=%d cpu=%d corrupted=%d | rebuffers=%d (%.1fs) | buffering %.1fs | switches=%d\n",
		st.FramesPlayed, st.FramesDroppedLate, st.FramesDroppedCPU, st.FramesCorrupted,
		st.Rebuffers, st.RebufferTime.Seconds(), st.BufferingTime.Seconds(), st.Switches)
}
