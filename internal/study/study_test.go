package study

import (
	"testing"
	"time"

	"realtracer/internal/trace"
)

func TestReducedStudyRuns(t *testing.T) {
	res, err := Run(Options{Seed: 1, MaxUsers: 8, ClipCap: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 {
		t.Fatal("no records")
	}
	played := playedRecs(res.Records)
	if len(played) < len(res.Records)/2 {
		t.Fatalf("only %d of %d attempts played", len(played), len(res.Records))
	}
	for _, r := range played {
		if r.MeasuredKbps <= 0 {
			t.Fatalf("played record with zero bandwidth: %+v", r)
		}
		if r.Protocol != "TCP" && r.Protocol != "UDP" {
			t.Fatalf("bad protocol %q", r.Protocol)
		}
		if r.Region == "" || r.ServerRegion == "" || r.Access == "" {
			t.Fatalf("missing grouping fields: %+v", r)
		}
	}
}

func TestStudyDeterministic(t *testing.T) {
	opt := Options{Seed: 11, MaxUsers: 5, ClipCap: 4}
	a, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Records) != len(b.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		ra, rb := a.Records[i], b.Records[i]
		if ra.User != rb.User || ra.ClipURL != rb.ClipURL ||
			ra.MeasuredFPS != rb.MeasuredFPS || ra.JitterMs != rb.JitterMs ||
			ra.Rating != rb.Rating {
			t.Fatalf("record %d differs:\n%+v\n%+v", i, ra, rb)
		}
	}
	if a.Events != b.Events {
		t.Fatalf("event counts differ: %d vs %d", a.Events, b.Events)
	}
}

func TestStudySeedsDiffer(t *testing.T) {
	a, _ := Run(Options{Seed: 1, MaxUsers: 4, ClipCap: 3})
	b, _ := Run(Options{Seed: 2, MaxUsers: 4, ClipCap: 3})
	same := len(a.Records) == len(b.Records)
	if same {
		for i := range a.Records {
			if a.Records[i].MeasuredFPS != b.Records[i].MeasuredFPS {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical studies")
	}
}

func TestUnavailabilityRate(t *testing.T) {
	res, err := Run(Options{Seed: 3, MaxUsers: 15, ClipCap: 15})
	if err != nil {
		t.Fatal(err)
	}
	unavailable := 0
	for _, r := range res.Records {
		if r.Unavailable {
			unavailable++
		}
	}
	frac := float64(unavailable) / float64(len(res.Records))
	if frac < 0.02 || frac > 0.25 {
		t.Fatalf("unavailability %.2f outside the paper's ~10%% ballpark", frac)
	}
}

func TestRatingBudgetHonored(t *testing.T) {
	res, err := Run(Options{Seed: 4, MaxUsers: 10, ClipCap: 20})
	if err != nil {
		t.Fatal(err)
	}
	perUser := map[string]int{}
	for _, r := range res.Records {
		if r.Rated {
			perUser[r.User]++
			if r.Rating < 0 || r.Rating > 10 {
				t.Fatalf("rating out of range: %v", r.Rating)
			}
		}
	}
	for _, u := range res.Users[:10] {
		if perUser[u.Name] > u.ClipsToRate {
			t.Fatalf("user %s rated %d > budget %d", u.Name, perUser[u.Name], u.ClipsToRate)
		}
	}
}

func TestControllerOptionAccepted(t *testing.T) {
	for _, ctrl := range []string{"tfrc", "aimd", "unresponsive", ""} {
		if _, err := Run(Options{Seed: 5, MaxUsers: 2, ClipCap: 2, Controller: ctrl}); err != nil {
			t.Fatalf("controller %q: %v", ctrl, err)
		}
	}
}

func TestPrerollOptionShiftsBuffering(t *testing.T) {
	shortP, err := Run(Options{Seed: 6, MaxUsers: 4, ClipCap: 4, Preroll: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	longP, err := Run(Options{Seed: 6, MaxUsers: 4, ClipCap: 4, Preroll: 16 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	avg := func(recs []*trace.Record) float64 {
		var sum float64
		n := 0
		for _, r := range playedRecs(recs) {
			sum += r.BufferingTime.Seconds()
			n++
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	if avg(longP.Records) <= avg(shortP.Records) {
		t.Fatalf("16s preroll buffered (%.1fs) no longer than 2s preroll (%.1fs)",
			avg(longP.Records), avg(shortP.Records))
	}
}
