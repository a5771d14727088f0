package player

import (
	"strconv"
	"testing"

	"realtracer/internal/rtsp"
)

// TestSetupHeaderValues: a SETUP's Transport value for TCP is the constant the
// spec renders to, and its Bandwidth value is the cap's decimal text, rendered
// once per cap a player has been handed — up to four caps in rotation cost
// nothing after their first SETUP, and a fifth takes the place of the one
// least recently used.
func TestSetupHeaderValues(t *testing.T) {
	if want := (rtsp.TransportSpec{Protocol: "tcp"}).Format(); tcpTransport != want {
		t.Errorf("tcpTransport = %q, want %q", tcpTransport, want)
	}
	p := &Player{}
	bandwidth := func(kbps float64) string {
		p.cfg.MaxBandwidthKbps = kbps
		return p.bandwidth()
	}
	caps := []float64{350, 20, 450, 34}
	for _, kbps := range caps {
		if got, want := bandwidth(kbps), strconv.Itoa(int(kbps)); got != want {
			t.Fatalf("Bandwidth for a %v kbps cap = %q, want %q", kbps, got, want)
		}
	}
	if n := testing.AllocsPerRun(20, func() {
		for _, kbps := range caps {
			bandwidth(kbps)
		}
	}); n != 0 {
		t.Errorf("rotating through four caps already rendered allocates %v", n)
	}
	if got := bandwidth(1500); got != "1500" || p.bandwidths[0].kbps != 1500 {
		t.Fatalf("a fifth cap: %q, most recent %+v", got, p.bandwidths[0])
	}
	for i, b := range p.bandwidths {
		if b.kbps == 350 {
			t.Errorf("slot %d still holds 350 kbps, the cap least recently used", i)
		}
	}
	if got := bandwidth(20); got != "20" {
		t.Errorf("Bandwidth for a 20 kbps cap after the eviction = %q", got)
	}
}
