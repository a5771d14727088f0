package tracer

import (
	"math/rand"
	"testing"
	"time"

	"realtracer/internal/geo"
	"realtracer/internal/media"
	"realtracer/internal/netsim"
	"realtracer/internal/server"
	"realtracer/internal/session"
	"realtracer/internal/simclock"
	"realtracer/internal/trace"
	"realtracer/internal/transport"
)

func testUser(access netsim.AccessClass, preferTCP bool, rateN int) *geo.User {
	return &geo.User{
		Name: "u.test", Country: "US", State: "MA", Region: geo.RegionNorthAmerica,
		Access: access, PCClass: 2, PreferTCP: preferTCP,
		ClipsToPlay: 5, ClipsToRate: rateN, RatingAnchor: 5,
	}
}

func runTracer(t *testing.T, u *geo.User, playlistLen int, unavailability float64) []*trace.Record {
	t.Helper()
	clock := simclock.New()
	n := netsim.New(clock, netsim.StaticRoute(netsim.Route{OneWayDelay: 30 * time.Millisecond}), 5)
	n.AddHost(netsim.HostConfig{Name: "srv", Access: netsim.DefaultAccessProfile(netsim.AccessServer)})
	n.AddHost(netsim.HostConfig{Name: "u.test", Access: netsim.DefaultAccessProfile(u.Access)})
	lib := media.GenerateLibrary("srv", playlistLen, 3)
	srv := server.New(server.Config{
		Clock: clock, Net: session.SimNet{Stack: transport.NewStack(n, "srv")},
		Library: lib, Rand: rand.New(rand.NewSource(1)),
		Unavailability: unavailability, SureStream: true, FEC: true,
	})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	site := geo.ServerSite{Name: "US/TEST", Host: "srv", Country: "US", Region: geo.RegionNorthAmerica}
	var playlist []Entry
	for _, c := range lib.Clips {
		playlist = append(playlist, Entry{URL: c.URL, ControlAddr: "srv:554", Site: site})
	}
	var recs []*trace.Record
	finished := false
	tr := New(Config{
		Clock: clock, Net: session.SimNet{Stack: transport.NewStack(n, "u.test")},
		User: u, Playlist: playlist, PlayFor: 10 * time.Second,
		Rand:       rand.New(rand.NewSource(2)),
		Rate:       func(rec *trace.Record) float64 { return 7 },
		OnRecord:   func(rec *trace.Record) { recs = append(recs, rec) },
		OnFinished: func() { finished = true },
	})
	tr.Run()
	clock.RunUntil(2 * time.Hour)
	if !finished {
		t.Fatal("tracer never finished")
	}
	return recs
}

func TestTracerWalksPlaylist(t *testing.T) {
	u := testUser(netsim.AccessDSLCable, false, 2)
	recs := runTracer(t, u, 4, 0)
	if len(recs) != 4 {
		t.Fatalf("records=%d want 4", len(recs))
	}
	rated := 0
	for i, r := range recs {
		if r.User != "u.test" || r.Country != "US" || r.Server != "US/TEST" {
			t.Fatalf("identity fields wrong: %+v", r)
		}
		if r.ClipURL != "rtsp://srv/clip00"+string(rune('0'+i))+".rm" {
			t.Fatalf("playlist order broken at %d: %s", i, r.ClipURL)
		}
		if r.Rated {
			rated++
			if r.Rating != 7 {
				t.Fatalf("rating hook ignored: %v", r.Rating)
			}
		}
	}
	if rated != 2 {
		t.Fatalf("rated=%d want the user's budget of 2", rated)
	}
}

func TestTracerPreferTCPUser(t *testing.T) {
	u := testUser(netsim.AccessT1LAN, true, 0)
	recs := runTracer(t, u, 3, 0)
	for _, r := range recs {
		if r.Protocol != "TCP" {
			t.Fatalf("PreferTCP user used %s", r.Protocol)
		}
	}
}

func TestTracerRecordsUnavailability(t *testing.T) {
	u := testUser(netsim.AccessDSLCable, false, 3)
	recs := runTracer(t, u, 5, 1.0)
	for _, r := range recs {
		if !r.Unavailable {
			t.Fatalf("expected unavailable record, got %+v", r)
		}
		if r.Rated {
			t.Fatal("unavailable clips must not consume the rating budget")
		}
	}
}

func TestTracerModemBandwidthSetting(t *testing.T) {
	slow := testUser(netsim.AccessModem, false, 0)
	slow.ModemKbps = 28
	fast := testUser(netsim.AccessModem, false, 0)
	fast.ModemKbps = 45
	trSlow := New(Config{User: slow, Rand: rand.New(rand.NewSource(1))})
	trFast := New(Config{User: fast, Rand: rand.New(rand.NewSource(1))})
	if trSlow.maxBandwidthFor() != 20 {
		t.Fatalf("slow modem setting=%v want 20", trSlow.maxBandwidthFor())
	}
	if trFast.maxBandwidthFor() != 34 {
		t.Fatalf("fast modem setting=%v want 34", trFast.maxBandwidthFor())
	}
}

func TestTracerStop(t *testing.T) {
	u := testUser(netsim.AccessDSLCable, false, 0)
	clock := simclock.New()
	n := netsim.New(clock, netsim.StaticRoute(netsim.Route{}), 5)
	n.AddHost(netsim.HostConfig{Name: "srv", Access: netsim.DefaultAccessProfile(netsim.AccessServer)})
	n.AddHost(netsim.HostConfig{Name: "u.test", Access: netsim.DefaultAccessProfile(u.Access)})
	lib := media.GenerateLibrary("srv", 5, 3)
	srv := server.New(server.Config{
		Clock: clock, Net: session.SimNet{Stack: transport.NewStack(n, "srv")},
		Library: lib, Rand: rand.New(rand.NewSource(1)), SureStream: true,
	})
	srv.Start()
	site := geo.ServerSite{Name: "S", Host: "srv"}
	var playlist []Entry
	for _, c := range lib.Clips {
		playlist = append(playlist, Entry{URL: c.URL, ControlAddr: "srv:554", Site: site})
	}
	count := 0
	finished := false
	var tr *Tracer
	tr = New(Config{
		Clock: clock, Net: session.SimNet{Stack: transport.NewStack(n, "u.test")},
		User: u, Playlist: playlist, PlayFor: 10 * time.Second,
		Rand: rand.New(rand.NewSource(2)),
		OnRecord: func(rec *trace.Record) {
			count++
			if count == 2 {
				tr.Stop()
			}
		},
		OnFinished: func() { finished = true },
	})
	tr.Run()
	clock.RunUntil(time.Hour)
	if count != 2 {
		t.Fatalf("Stop did not halt the playlist: %d records", count)
	}
	if !finished {
		t.Fatal("OnFinished should still fire after Stop")
	}
}
