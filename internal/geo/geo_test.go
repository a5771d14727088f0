package geo

import (
	"testing"
	"time"

	"realtracer/internal/netsim"
)

func TestPopulationShape(t *testing.T) {
	users := Population(1)
	if len(users) != 63 {
		t.Fatalf("users=%d want 63 (the paper's count)", len(users))
	}
	countries := map[string]bool{}
	names := map[string]bool{}
	for _, u := range users {
		countries[u.Country] = true
		if names[u.Name] {
			t.Fatalf("duplicate user name %s", u.Name)
		}
		names[u.Name] = true
		if u.ClipsToPlay < 1 || u.ClipsToPlay > PlaylistSize {
			t.Fatalf("clips-to-play out of range: %d", u.ClipsToPlay)
		}
		if u.ClipsToRate > u.ClipsToPlay {
			t.Fatalf("rates more than plays: %d > %d", u.ClipsToRate, u.ClipsToPlay)
		}
		if u.RatingAnchor < 2 || u.RatingAnchor > 8 {
			t.Fatalf("anchor out of range: %v", u.RatingAnchor)
		}
		if u.Access == netsim.AccessModem && (u.ModemKbps < 20 || u.ModemKbps > 50) {
			t.Fatalf("modem rate out of range: %v", u.ModemKbps)
		}
		if u.Access != netsim.AccessModem && u.ModemKbps != 0 {
			t.Fatal("broadband user with modem rate")
		}
		if u.Country == "US" && u.State == "" {
			t.Fatal("US user without state")
		}
	}
	if len(countries) != 12 {
		t.Fatalf("countries=%d want 12", len(countries))
	}
}

func TestPopulationNMatchesPopulationAt63(t *testing.T) {
	a, b := Population(3), PopulationN(3, 63)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if *a[i] != *b[i] {
			t.Fatalf("user %d differs between Population and PopulationN(63)", i)
		}
	}
}

func TestPopulationNScalesCountryMix(t *testing.T) {
	for _, n := range []int{1, 10, 63, 200, 1000} {
		users := PopulationN(4, n)
		if len(users) != n {
			t.Fatalf("PopulationN(%d) produced %d users", n, len(users))
		}
		names := map[string]bool{}
		byCountry := map[string]int{}
		for _, u := range users {
			if names[u.Name] {
				t.Fatalf("n=%d: duplicate user name %s", n, u.Name)
			}
			names[u.Name] = true
			byCountry[u.Country]++
			if u.ClipsToPlay < 1 || u.ClipsToPlay > PlaylistSize || u.ClipsToRate > u.ClipsToPlay {
				t.Fatalf("n=%d: implausible user %+v", n, u)
			}
		}
		if n >= 63 {
			// The paper's mix: US dominates at roughly 38/63 of the panel.
			us := float64(byCountry["US"]) / float64(n)
			if us < 0.5 || us > 0.7 {
				t.Fatalf("n=%d: US share %.2f strayed from the paper's 60%%", n, us)
			}
			if len(byCountry) != 12 {
				t.Fatalf("n=%d: countries=%d want 12", n, len(byCountry))
			}
		}
	}
	// Deterministic for the same seed, different for different seeds.
	a, b := PopulationN(4, 200), PopulationN(4, 200)
	for i := range a {
		if *a[i] != *b[i] {
			t.Fatal("PopulationN not deterministic")
		}
	}
}

func TestPopulationDeterministic(t *testing.T) {
	a, b := Population(5), Population(5)
	for i := range a {
		if *a[i] != *b[i] {
			t.Fatalf("user %d differs across same-seed populations", i)
		}
	}
	c := Population(6)
	same := true
	for i := range a {
		if a[i].PreferTCP != c[i].PreferTCP || a[i].ClipsToPlay != c[i].ClipsToPlay {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical populations")
	}
}

func TestPreferTCPShare(t *testing.T) {
	users := Population(2)
	tcp := 0
	for _, u := range users {
		if u.PreferTCP {
			tcp++
		}
	}
	frac := float64(tcp) / float64(len(users))
	if frac < 0.2 || frac > 0.65 {
		t.Fatalf("PreferTCP share %.2f implausible for the 44%% TCP mix", frac)
	}
}

func TestSitesInventory(t *testing.T) {
	sites := Sites()
	if len(sites) != 11 {
		t.Fatalf("sites=%d want 11", len(sites))
	}
	countries := map[string]bool{}
	total := 0
	for _, s := range sites {
		countries[s.Country] = true
		total += s.Clips
		if s.Unavailability < 0 || s.Unavailability > 0.5 {
			t.Fatalf("%s unavailability %v", s.Name, s.Unavailability)
		}
	}
	if len(countries) != 8 {
		t.Fatalf("server countries=%d want 8", len(countries))
	}
	if total != PlaylistSize {
		t.Fatalf("playlist clips=%d want %d", total, PlaylistSize)
	}
}

func TestRegionFolding(t *testing.T) {
	if AnalysisServerRegion(RegionJapan) != RegionAsia {
		t.Fatal("Japan should fold into Asia for server analysis")
	}
	if AnalysisServerRegion(RegionEurope) != RegionEurope {
		t.Fatal("Europe should be itself")
	}
}

func TestRouteTableDeterministic(t *testing.T) {
	sites := Sites()
	users := Population(1)
	a := NewRouteTable(sites, users, 3)
	b := NewRouteTable(sites, users, 3)
	for _, u := range users[:10] {
		for _, s := range sites {
			ra := a.Route(s.Host, u.Name)
			rb := b.Route(s.Host, u.Name)
			if ra != rb {
				t.Fatalf("route %s->%s not deterministic", s.Host, u.Name)
			}
		}
	}
}

func TestRouteDirectionSharesFate(t *testing.T) {
	sites := Sites()
	users := Population(1)
	rt := NewRouteTable(sites, users, 3)
	fwd := rt.Route(sites[0].Host, users[0].Name)
	rev := rt.Route(users[0].Name, sites[0].Host)
	// The lemon-path draw hashes the unordered pair: both directions agree
	// on capacity class.
	if (fwd.CapacityKbps < 200) != (rev.CapacityKbps < 200) {
		t.Fatal("directions disagree on lemon-path status")
	}
}

func TestBadPathsExist(t *testing.T) {
	sites := Sites()
	users := Population(1)
	rt := NewRouteTable(sites, users, 3)
	lemons, total := 0, 0
	for _, u := range users {
		for _, s := range sites {
			total++
			if rt.Route(s.Host, u.Name).CapacityKbps < 200 {
				lemons++
			}
		}
	}
	frac := float64(lemons) / float64(total)
	if frac < 0.05 || frac > 0.45 {
		t.Fatalf("lemon-path fraction %.2f outside plausible range", frac)
	}
}

func TestInternationalWorseThanDomestic(t *testing.T) {
	us := baseChar(RegionNorthAmerica, RegionNorthAmerica)
	aus := baseChar(RegionNorthAmerica, RegionAustralia)
	if aus.owd <= us.owd || aus.loss <= us.loss || aus.capKbps >= us.capKbps {
		t.Fatal("NA-AUS route should be strictly worse than NA-NA")
	}
	if baseChar(RegionAustralia, RegionNorthAmerica) != aus {
		t.Fatal("baseChar should be symmetric")
	}
}

func TestUnknownHostFallbackRoute(t *testing.T) {
	rt := NewRouteTable(nil, nil, 1)
	r := rt.Route("mystery1", "mystery2")
	if r.OneWayDelay <= 0 || r.OneWayDelay > time.Second {
		t.Fatalf("fallback route odd: %+v", r)
	}
}

func TestCongestionScale(t *testing.T) {
	sites := Sites()
	users := Population(1)
	rt := NewRouteTable(sites, users, 3)
	rt.CongestionScale = 2
	r := rt.Route(sites[0].Host, sites[1].Host)
	if r.CongestionMean > 0.9 {
		t.Fatalf("scaled congestion should clamp at 0.9: %v", r.CongestionMean)
	}
}

func TestPairHashUnordered(t *testing.T) {
	if pairHash("a", "b") != pairHash("b", "a") {
		t.Fatal("pairHash must be direction independent")
	}
	if pairHash("a", "b") == pairHash("a", "c") {
		t.Fatal("pairHash collision on trivial inputs")
	}
}

func TestUSStateWeightsFavorMA(t *testing.T) {
	users := Population(7)
	states := map[string]int{}
	us := 0
	for _, u := range users {
		if u.Country == "US" {
			us++
			states[u.State]++
		}
	}
	if us == 0 || states["MA"] < us/4 {
		t.Fatalf("MA share too small: %d of %d", states["MA"], us)
	}
}
