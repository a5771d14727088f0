package figures

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"realtracer/internal/trace"
)

// synthetic builds a deterministic record set exercising every grouping the
// figures use.
func synthetic() []*trace.Record {
	rng := rand.New(rand.NewSource(4))
	var recs []*trace.Record
	accesses := []string{"56k Modem", "DSL/Cable", "T1/LAN"}
	userRegions := []string{"Australia", "US/Canada", "Asia", "Europe"}
	serverRegions := []string{"Asia", "Brazil", "US/Canada", "Australia", "Europe"}
	countries := []string{"US", "US", "US", "UK", "China", "Australia"}
	states := []string{"MA", "MA", "FL", "", "", ""}
	pcs := []string{"Pentium III / 256-512MB", "Intel Pentium MMX / 24MB"}
	for u := 0; u < 12; u++ {
		user := "user" + string(rune('A'+u))
		nClips := 5 + rng.Intn(20)
		for c := 0; c < nClips; c++ {
			r := &trace.Record{
				User:          user,
				Country:       countries[u%len(countries)],
				State:         states[u%len(states)],
				Region:        userRegions[u%len(userRegions)],
				Access:        accesses[u%len(accesses)],
				PCClass:       pcs[u%len(pcs)],
				ClipURL:       "rtsp://srv/clip.rm",
				Server:        "SRV/" + serverRegions[c%len(serverRegions)],
				ServerCountry: countries[c%len(countries)],
				ServerRegion:  serverRegions[c%len(serverRegions)],
				Protocol:      []string{"TCP", "UDP"}[rng.Intn(2)],
			}
			switch {
			case rng.Float64() < 0.1:
				r.Unavailable = true
			default:
				r.MeasuredFPS = rng.Float64() * 25
				r.MeasuredKbps = rng.Float64() * 400
				r.JitterMs = rng.Float64() * 800
				r.FramesPlayed = int(r.MeasuredFPS * 60)
				if c < 4 {
					r.Rated = true
					r.Rating = float64(rng.Intn(11))
				}
			}
			recs = append(recs, r)
		}
	}
	return recs
}

func TestAllGeneratorsProduceFigures(t *testing.T) {
	recs := synthetic()
	for _, g := range All() {
		fig := g.Agg(Aggregate(recs))
		if fig.ID != g.ID {
			t.Errorf("%s: ID mismatch %q", g.ID, fig.ID)
		}
		if len(fig.Series) == 0 {
			t.Errorf("%s: no series", g.ID)
		}
		if len(fig.Notes) == 0 {
			t.Errorf("%s: no notes", g.ID)
		}
		var buf bytes.Buffer
		fig.Render(&buf)
		if buf.Len() == 0 {
			t.Errorf("%s: render produced nothing", g.ID)
		}
	}
}

func TestAllGeneratorCount(t *testing.T) {
	// Figures 5-28 inclusive: 24 record-driven figures.
	if n := len(All()); n != 24 {
		t.Fatalf("generators=%d want 24", n)
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig11"); !ok {
		t.Fatal("fig11 missing")
	}
	if _, ok := ByID("fig99"); ok {
		t.Fatal("fig99 should not exist")
	}
}

func TestFig10UsesAllAttempts(t *testing.T) {
	recs := []*trace.Record{
		{Server: "A", Unavailable: true},
		{Server: "A"},
		{Server: "A"},
		{Server: "A"},
		{Server: "B"},
	}
	f := Aggregate(recs).Fig10Unavailable()
	s := f.Series[0]
	if len(s.Labels) != 2 {
		t.Fatalf("servers=%v", s.Labels)
	}
	if s.Labels[0] != "A" || s.Y[0] != 0.25 {
		t.Fatalf("A unavailability=%v want 0.25", s.Y[0])
	}
	if s.Y[1] != 0 {
		t.Fatalf("B unavailability=%v want 0", s.Y[1])
	}
}

func TestFig16Fractions(t *testing.T) {
	recs := []*trace.Record{
		{Protocol: "TCP"}, {Protocol: "UDP"}, {Protocol: "UDP"}, {Protocol: "UDP"},
	}
	f := Aggregate(recs).Fig16ProtocolMix()
	s := f.Series[0]
	if s.Y[0] != 0.25 || s.Y[1] != 0.75 {
		t.Fatalf("mix=%v", s.Y)
	}
}

func TestFig05CountsPerUser(t *testing.T) {
	recs := []*trace.Record{
		{User: "a"}, {User: "a"}, {User: "a"},
		{User: "b"},
	}
	f := Aggregate(recs).Fig05ClipsPerUser()
	s := f.Series[0]
	// CDF over {3, 1}: values 1 and 3 present.
	if len(s.X) == 0 {
		t.Fatal("empty CDF")
	}
	if s.X[0] > 1 || s.X[len(s.X)-1] < 3 {
		t.Fatalf("per-user counts wrong: %v", s.X)
	}
}

func TestFig28FindsCorrelationDirection(t *testing.T) {
	var recs []*trace.Record
	for i := 0; i < 50; i++ {
		recs = append(recs, &trace.Record{
			User: "u", Rated: true,
			MeasuredKbps: float64(i * 10),
			Rating:       float64(i%3) + float64(i)/10, // upward trend + noise
		})
	}
	f := Aggregate(recs).Fig28QualityVsBandwidth()
	if len(f.Series) != 2 {
		t.Fatalf("series=%d want scatter + binned", len(f.Series))
	}
	// Binned means should rise overall.
	binned := f.Series[1]
	if binned.Y[len(binned.Y)-1] <= binned.Y[0] {
		t.Fatal("binned means should trend upward for an upward-trending input")
	}
}

func TestSplitCDFSkipsEmptyGroups(t *testing.T) {
	recs := []*trace.Record{
		{Access: "56k Modem", MeasuredFPS: 2},
		{Access: "56k Modem", MeasuredFPS: 4},
	}
	f := Aggregate(recs).Fig12FrameRateByAccess()
	for _, s := range f.Series {
		if s.Label != "56k Modem" && len(s.X) > 0 {
			t.Fatalf("unexpected non-empty series %q", s.Label)
		}
	}
}

func TestBandwidthBands(t *testing.T) {
	cases := []struct {
		kbps float64
		want string
	}{{5, "< 10K"}, {10, "10K - 100K"}, {50, "10K - 100K"}, {100, "10K - 100K"}, {101, "> 100K"}}
	for _, tc := range cases {
		if got := bandwidthBand(&trace.Record{MeasuredKbps: tc.kbps}); got != tc.want {
			t.Errorf("band(%v)=%q want %q", tc.kbps, got, tc.want)
		}
	}
}

func TestRenderHandlesEmptyRecords(t *testing.T) {
	for _, g := range All() {
		var buf bytes.Buffer
		g.Agg(Aggregate(nil)).Render(&buf) // must not panic
	}
}

func TestCDFSeriesEmptyInput(t *testing.T) {
	s := cdfSeries("x", nil)
	if len(s.X) != 0 {
		t.Fatal("empty input should produce empty series")
	}
}

func TestFigureNotesMentionPaper(t *testing.T) {
	recs := synthetic()
	// Spot-check that key figures carry their paper-claim annotations.
	for _, id := range []string{"fig11", "fig12", "fig20", "fig26"} {
		g, _ := ByID(id)
		fig := g.Agg(Aggregate(recs))
		found := false
		for _, n := range fig.Notes {
			if bytes.Contains([]byte(n), []byte("paper")) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no paper reference in notes", id)
		}
	}
	_ = time.Second
}
