// Package geo models the study's geography: the 11 RealServer sites in 8
// countries (Figure 3 / Figure 8), the 63-user population across 12
// countries (Figure 4 / Figure 7, with the US broken down by state in
// Figure 9), and the wide-area route characteristics between regions that
// shape the per-region performance splits (Figures 14, 15, 22, 23).
package geo

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"realtracer/internal/detrand"
	"realtracer/internal/netsim"
)

// Region is the coarse geographic bucket used by the analysis.
type Region int

const (
	RegionNorthAmerica Region = iota
	RegionEurope
	RegionAsia
	RegionAustralia
	RegionSouthAmerica
	RegionJapan
)

// String implements fmt.Stringer with the paper's labels.
func (r Region) String() string {
	switch r {
	case RegionNorthAmerica:
		return "US/Canada"
	case RegionEurope:
		return "Europe"
	case RegionAsia:
		return "Asia"
	case RegionAustralia:
		return "Australia"
	case RegionSouthAmerica:
		return "Brazil"
	case RegionJapan:
		return "Japan"
	default:
		return fmt.Sprintf("Region(%d)", int(r))
	}
}

// AnalysisServerRegion maps a server's region to its Figure-14 bucket.
func AnalysisServerRegion(r Region) Region {
	if r == RegionJapan {
		return RegionAsia
	}
	return r
}

// AnalysisUserRegion maps a user's region to its Figure-15 bucket.
func AnalysisUserRegion(r Region) Region {
	switch r {
	case RegionJapan, RegionSouthAmerica:
		return RegionAsia // no such users in the study; defensive fold
	default:
		return r
	}
}

// ServerSite is one of the study's RealServer installations (Figure 10's
// x-axis).
type ServerSite struct {
	// Name is the paper's label, e.g. "US/CNN".
	Name string
	// Host is the simulator host name.
	Host string
	// Country and Region locate the site.
	Country string
	Region  Region
	// Unavailability is the site's clip-unavailability rate (Figure 10
	// varies roughly 3-20 % across servers).
	Unavailability float64
	// Clips is the number of playlist entries drawn from this site. The
	// playlist had 98 clips across 11 servers, with US sites contributing
	// the most (Figure 8).
	Clips int
}

// Sites returns the 11 server sites. Clip counts are proportioned so the
// served-clips-per-country breakdown lands near Figure 8 (US 1075, UK 416,
// Brazil 297, Australia 294, China 260, Italy 240, Japan 184, Canada 126 of
// 2892 served ⇒ roughly 36/14/10/10/9/8/6/4 %).
func Sites() []ServerSite {
	return []ServerSite{
		{Name: "US/CNN", Host: "cnn.us", Country: "US", Region: RegionNorthAmerica, Unavailability: 0.06, Clips: 19},
		{Name: "US/ABC", Host: "abc.us", Country: "US", Region: RegionNorthAmerica, Unavailability: 0.10, Clips: 17},
		{Name: "UK/BBC", Host: "bbc.uk", Country: "UK", Region: RegionEurope, Unavailability: 0.05, Clips: 8},
		{Name: "UK/ITN", Host: "itn.uk", Country: "UK", Region: RegionEurope, Unavailability: 0.12, Clips: 6},
		{Name: "BRZ/UOL", Host: "uol.br", Country: "Brazil", Region: RegionSouthAmerica, Unavailability: 0.20, Clips: 10},
		{Name: "AUS/BBC", Host: "abc.au", Country: "Australia", Region: RegionAustralia, Unavailability: 0.22, Clips: 10},
		{Name: "CHI/CCTV", Host: "cctv.cn", Country: "China", Region: RegionAsia, Unavailability: 0.09, Clips: 9},
		{Name: "ITA/Kwvideo", Host: "kw.it", Country: "Italy", Region: RegionEurope, Unavailability: 0.08, Clips: 8},
		{Name: "JAP/FUJITV", Host: "fuji.jp", Country: "Japan", Region: RegionJapan, Unavailability: 0.13, Clips: 6},
		{Name: "CAN/CBC", Host: "cbc.ca", Country: "Canada", Region: RegionNorthAmerica, Unavailability: 0.03, Clips: 5},
		// The paper's Figure 10 lists 10 server labels while the text says
		// 11 servers in 8 countries; the eleventh (a second US site) is
		// reconstructed here so totals match the text.
		{Name: "US/WPI", Host: "wpi.us", Country: "US", Region: RegionNorthAmerica, Unavailability: 0.04, Clips: 0},
	}
}

// PlaylistSize is the study's playlist length.
const PlaylistSize = 98

// ActiveSites filters to the sites that actually serve clips (Clips > 0):
// the hosts the dynamics layer targets, and the mirror set the open-loop
// selection layer replicates every clip across.
func ActiveSites(sites []ServerSite) []ServerSite {
	out := make([]ServerSite, 0, len(sites))
	for _, s := range sites {
		if s.Clips > 0 {
			out = append(out, s)
		}
	}
	return out
}

// User is one study participant.
type User struct {
	// Name is the simulator host name.
	Name string
	// Country locates the user (Figure 7); State refines US users
	// (Figure 9).
	Country string
	State   string
	Region  Region
	// Access is the self-reported network configuration.
	Access netsim.AccessClass
	// ModemKbps is the actual sync rate for modem users (V.34 hardware and
	// bad lines at the low end, clean V.90 at the top). Zero for broadband.
	ModemKbps float64
	// PCClass indexes into the player CPU profiles (Figure 19's classes).
	PCClass int
	// PreferTCP marks users whose RealPlayer/firewall ends up on TCP data
	// (Figure 16: 44 % of flows).
	PreferTCP bool
	// ClipsToPlay is how far through the playlist this user got (Figure 5:
	// median ≥ 40 of 98).
	ClipsToPlay int
	// ClipsToRate is how many ratings the user volunteered (Figure 6:
	// median 3, long tail).
	ClipsToRate int
	// RatingAnchor is the user's personal "normalization" centre (Section
	// V.C: ratings look uniform with mean ≈ 5 across users).
	RatingAnchor float64
	// RatesAVTogether: some users rated audio+video, some video only
	// (Section V.C's criteria confusion).
	RatesAVTogether bool
}

// countryPlan drives the user sampler toward the paper's Figure 7 mix. The
// counts are users per country; clip counts emerge from playlist progress.
type countryPlan struct {
	country string
	region  Region
	users   int
	// clipBias scales how much of the playlist users from here complete,
	// steering per-country clip totals toward Figure 7.
	clipBias float64
}

var plans = []countryPlan{
	{"US", RegionNorthAmerica, 38, 1.15},
	{"China", RegionAsia, 3, 1.0},
	{"Germany", RegionEurope, 3, 0.9},
	{"France", RegionEurope, 3, 0.8},
	{"Australia", RegionAustralia, 3, 0.7},
	{"Canada", RegionNorthAmerica, 2, 0.9},
	{"UK", RegionEurope, 2, 0.6},
	{"UAE", RegionAsia, 2, 0.6},
	{"Romania", RegionEurope, 2, 0.5},
	{"New Zealand", RegionAustralia, 2, 0.35},
	{"India", RegionAsia, 2, 0.2},
	{"Egypt", RegionAsia, 1, 0.2},
}

// usStates reproduces Figure 9's Massachusetts-heavy state mix.
var usStates = []struct {
	state  string
	weight float64
}{
	{"MA", 0.50}, {"FL", 0.07}, {"NC", 0.06}, {"MN", 0.05}, {"MD", 0.05},
	{"DE", 0.04}, {"WI", 0.04}, {"CA", 0.04}, {"TX", 0.03}, {"IL", 0.03},
	{"CO", 0.02}, {"NH", 0.02}, {"CT", 0.02}, {"TN", 0.01}, {"ME", 0.01},
	{"WA", 0.005}, {"VA", 0.005},
}

// Population generates the study's user population deterministically from
// seed. Totals follow the paper: 63 users, 12 countries.
func Population(seed int64) []*User { return PopulationN(seed, PopulationSize) }

// PopulationSize is the paper's participant count.
const PopulationSize = 63

// apportion scales the per-country user counts to a population of n by
// largest-remainder apportionment over the paper's 63-user mix. For n = 63
// it reproduces the paper's counts exactly.
func apportion(n int) []int {
	counts := make([]int, len(plans))
	rems := make([]float64, len(plans))
	given := 0
	for i, plan := range plans {
		q := float64(n) * float64(plan.users) / float64(PopulationSize)
		counts[i] = int(q)
		rems[i] = q - float64(counts[i])
		given += counts[i]
	}
	for given < n {
		best := -1
		for i := range plans {
			if best < 0 || rems[i] > rems[best] {
				best = i
			}
		}
		counts[best]++
		rems[best] = -1
		given++
	}
	return counts
}

// PopulationN generates a population of n users deterministically from
// seed, preserving the paper's country mix by proportional apportionment —
// the knob that scales a study past the original 63-participant panel.
// PopulationN(seed, 63) is identical to Population(seed).
func PopulationN(seed int64, n int) []*User {
	if n <= 0 {
		n = PopulationSize
	}
	counts := apportion(n)
	rng := detrand.Plain(seed)
	// One backing array for the users and one string for every name: a
	// population costs a handful of allocations, not a few per user.
	cells := make([]User, n)
	users := make([]*User, n)
	var names strings.Builder
	names.Grow(n * 32) // "userNN." and a country, sanitized
	num := make([]byte, 0, 20)
	i := 0
	for pi, plan := range plans {
		for u := 0; u < counts[pi]; u++ {
			// "userNN.country": NN zero-padded to two digits, the country
			// lower-cased with everything but letters and digits dropped. The
			// builder never rewrites what it holds, so each name is a slice
			// of what it has built so far.
			from := names.Len()
			names.WriteString("user")
			if i < 10 {
				names.WriteByte('0')
			}
			names.Write(strconv.AppendInt(num[:0], int64(i), 10))
			names.WriteByte('.')
			for _, r := range []byte(plan.country) {
				switch {
				case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
					names.WriteByte(r)
				case r >= 'A' && r <= 'Z':
					names.WriteByte(r + 'a' - 'A')
				}
			}
			user := &cells[i]
			user.Name = names.String()[from:]
			user.Country = plan.country
			user.Region = plan.region
			users[i] = user
			i++
			if plan.country == "US" {
				user.State = pickState(&rng)
			}
			user.Access = pickAccess(&rng, plan.country)
			if user.Access == netsim.AccessModem {
				user.ModemKbps = 26 + rng.Float64()*20
			}
			user.PCClass = pickPC(&rng)
			user.PreferTCP = rng.Float64() < 0.44
			user.ClipsToPlay = pickClipCount(&rng, plan.clipBias)
			user.ClipsToRate = pickRateCount(&rng, user.ClipsToPlay)
			user.RatingAnchor = 2.5 + rng.Float64()*5 // centres spread over 2.5-7.5
			user.RatesAVTogether = rng.Float64() < 0.5
		}
	}
	return users
}

func pickState(rng *rand.Rand) string {
	r := rng.Float64()
	acc := 0.0
	for _, s := range usStates {
		acc += s.weight
		if r < acc {
			return s.state
		}
	}
	return usStates[0].state
}

// pickAccess reflects mid-2001 access mixes: modems still common, broadband
// growing in the US/Europe, workplace T1/LAN well represented (the study
// was solicited through campus and work contacts).
func pickAccess(rng *rand.Rand, country string) netsim.AccessClass {
	r := rng.Float64()
	switch country {
	case "US", "Canada":
		switch {
		case r < 0.22:
			return netsim.AccessModem
		case r < 0.62:
			return netsim.AccessDSLCable
		default:
			return netsim.AccessT1LAN
		}
	case "India", "Egypt", "Romania":
		if r < 0.75 {
			return netsim.AccessModem
		}
		return netsim.AccessT1LAN
	default:
		switch {
		case r < 0.35:
			return netsim.AccessModem
		case r < 0.70:
			return netsim.AccessDSLCable
		default:
			return netsim.AccessT1LAN
		}
	}
}

func pickPC(rng *rand.Rand) int {
	// Index into player.PCClasses() order: PII/32, PII/128-256, PIII,
	// Celeron, MMX, AMD. Mostly recent machines, a slow tail.
	r := rng.Float64()
	switch {
	case r < 0.10:
		return 0 // Pentium II / 32MB
	case r < 0.35:
		return 1 // Pentium II / 128-256MB
	case r < 0.65:
		return 2 // Pentium III
	case r < 0.80:
		return 3 // Celeron
	case r < 0.88:
		return 4 // Pentium MMX — the genuinely slow class
	default:
		return 5 // AMD
	}
}

// pickClipCount draws playlist progress so that the Figure-5 CDF's shape
// holds: a spread from a handful of clips to the full 98, median >= 40,
// with the population total landing near the paper's 2855 plays.
func pickClipCount(rng *rand.Rand, bias float64) int {
	base := 6 + rng.Intn(83) // 6..88
	n := int(float64(base) * bias)
	if n < 3 {
		n = 3
	}
	if n > PlaylistSize {
		n = PlaylistSize
	}
	return n
}

// pickRateCount: users were asked to rate 3-10 clips; half rated about 3,
// some rated many more, some none (Figure 6).
func pickRateCount(rng *rand.Rand, played int) int {
	r := rng.Float64()
	var n int
	switch {
	case r < 0.15:
		n = 0
	case r < 0.55:
		n = 3
	case r < 0.82:
		n = 4 + rng.Intn(8)
	default:
		n = 12 + rng.Intn(26)
	}
	if n > played {
		n = played
	}
	return n
}

// RouteTable implements netsim.RouteTable from the region matrix: hosts are
// located by suffix lookup against the registered sites and users.
type RouteTable struct {
	regionOf map[string]Region
	// CongestionScale globally scales cross-traffic for ablations.
	CongestionScale float64
}

// NewRouteTable builds the table for the given sites and users.
func NewRouteTable(sites []ServerSite, users []*User) *RouteTable {
	t := &RouteTable{
		regionOf:        make(map[string]Region),
		CongestionScale: 1,
	}
	for _, s := range sites {
		t.regionOf[s.Host] = s.Region
	}
	for _, u := range users {
		t.regionOf[u.Name] = u.Region
	}
	return t
}

// regionPair captures inter-region base characteristics (one way).
type pairChar struct {
	owd        time.Duration
	jitter     time.Duration
	loss       float64
	capKbps    float64
	congestion float64
	congVar    float64
}

// pairChars is indexed [from][to] after folding Japan into Asia and South
// America into its own row; symmetric by construction below.
func baseChar(a, b Region) pairChar {
	// Fold for matrix purposes.
	fold := func(r Region) int {
		switch r {
		case RegionNorthAmerica:
			return 0
		case RegionEurope:
			return 1
		case RegionAsia, RegionJapan:
			return 2
		case RegionAustralia:
			return 3
		case RegionSouthAmerica:
			return 4
		}
		return 0
	}
	i, j := fold(a), fold(b)
	if i > j {
		i, j = j, i
	}
	// 2001-era wide-area characteristics: transpacific and southern-
	// hemisphere links are long, lossy and congested; intra-NA/EU paths are
	// comparatively clean. Capacity is per-flow available share.
	key := i*10 + j
	switch key {
	case 0: // NA-NA
		return pairChar{owd: 35 * time.Millisecond, jitter: 8 * time.Millisecond, loss: 0.003, capKbps: 2200, congestion: 0.15, congVar: 0.09}
	case 1: // NA-EU
		return pairChar{owd: 55 * time.Millisecond, jitter: 12 * time.Millisecond, loss: 0.006, capKbps: 1600, congestion: 0.20, congVar: 0.11}
	case 2: // NA-Asia
		return pairChar{owd: 95 * time.Millisecond, jitter: 22 * time.Millisecond, loss: 0.015, capKbps: 900, congestion: 0.32, congVar: 0.15}
	case 3: // NA-AUS
		return pairChar{owd: 90 * time.Millisecond, jitter: 25 * time.Millisecond, loss: 0.018, capKbps: 650, congestion: 0.40, congVar: 0.16}
	case 4: // NA-SA
		return pairChar{owd: 75 * time.Millisecond, jitter: 18 * time.Millisecond, loss: 0.012, capKbps: 1000, congestion: 0.26, congVar: 0.13}
	case 11: // EU-EU
		return pairChar{owd: 25 * time.Millisecond, jitter: 7 * time.Millisecond, loss: 0.003, capKbps: 2000, congestion: 0.14, congVar: 0.09}
	case 12: // EU-Asia
		return pairChar{owd: 110 * time.Millisecond, jitter: 24 * time.Millisecond, loss: 0.017, capKbps: 800, congestion: 0.34, congVar: 0.15}
	case 13: // EU-AUS
		return pairChar{owd: 130 * time.Millisecond, jitter: 28 * time.Millisecond, loss: 0.020, capKbps: 600, congestion: 0.42, congVar: 0.17}
	case 14: // EU-SA
		return pairChar{owd: 95 * time.Millisecond, jitter: 20 * time.Millisecond, loss: 0.014, capKbps: 850, congestion: 0.28, congVar: 0.13}
	case 22: // Asia-Asia
		return pairChar{owd: 45 * time.Millisecond, jitter: 18 * time.Millisecond, loss: 0.012, capKbps: 950, congestion: 0.29, congVar: 0.14}
	case 23: // Asia-AUS
		return pairChar{owd: 85 * time.Millisecond, jitter: 24 * time.Millisecond, loss: 0.019, capKbps: 650, congestion: 0.38, congVar: 0.16}
	case 24: // Asia-SA
		return pairChar{owd: 150 * time.Millisecond, jitter: 30 * time.Millisecond, loss: 0.022, capKbps: 580, congestion: 0.40, congVar: 0.16}
	case 33: // AUS-AUS
		return pairChar{owd: 30 * time.Millisecond, jitter: 12 * time.Millisecond, loss: 0.008, capKbps: 1100, congestion: 0.25, congVar: 0.13}
	case 34: // AUS-SA
		return pairChar{owd: 160 * time.Millisecond, jitter: 32 * time.Millisecond, loss: 0.024, capKbps: 550, congestion: 0.42, congVar: 0.17}
	case 44: // SA-SA
		return pairChar{owd: 35 * time.Millisecond, jitter: 14 * time.Millisecond, loss: 0.010, capKbps: 1000, congestion: 0.27, congVar: 0.13}
	}
	return pairChar{owd: 80 * time.Millisecond, jitter: 20 * time.Millisecond, loss: 0.012, capKbps: 950, congestion: 0.26, congVar: 0.13}
}

// MinOneWayDelay returns the smallest one-way propagation delay any route
// built from the region matrix can carry — the conservative-synchronization
// lookahead for sharded execution (netsim.Fabric). Lemon-path draws degrade
// capacity, loss and jitter but never shorten propagation, and the
// unknown-host fallback route is slower than the matrix minimum, so this is
// a true lower bound for every host pair. It is a property of the matrix
// alone — independent of the population, the seed and the shard count —
// which is what keeps lookahead-derived timestamps partition-invariant.
func MinOneWayDelay() time.Duration {
	regions := []Region{RegionNorthAmerica, RegionEurope, RegionAsia,
		RegionAustralia, RegionSouthAmerica, RegionJapan}
	min := time.Duration(0)
	for _, a := range regions {
		for _, b := range regions {
			if owd := baseChar(a, b).owd; min == 0 || owd < min {
				min = owd
			}
		}
	}
	return min
}

// badPathProb is the chance a given host pair's route is a lemon: a
// persistently congested or misrouted path well below the regional norm.
// The 2001 Internet had plenty — they are the broadband slideshows of
// Figure 12 (about 20 % of broadband plays were under 3 fps).
func badPathProb(a, b Region) float64 {
	intl := AnalysisServerRegion(a) != AnalysisServerRegion(b)
	far := a == RegionAustralia || b == RegionAustralia ||
		a == RegionAsia || b == RegionAsia || a == RegionJapan || b == RegionJapan ||
		a == RegionSouthAmerica || b == RegionSouthAmerica
	switch {
	case far && intl:
		return 0.40
	case intl:
		return 0.20
	case far:
		return 0.25
	default:
		return 0.12
	}
}

// Route implements netsim.RouteTable. Each ordered host pair gets a
// deterministic draw: usually the regional characteristics, occasionally a
// lemon path.
func (t *RouteTable) Route(fromHost, toHost string) netsim.Route {
	ra, okA := t.regionOf[fromHost]
	rb, okB := t.regionOf[toHost]
	if !okA || !okB {
		return netsim.Route{OneWayDelay: 50 * time.Millisecond, Jitter: 10 * time.Millisecond, LossRate: 0.01}
	}
	c := baseChar(ra, rb)
	// Deterministic per-pair randomness: hash the unordered pair so both
	// directions of a conversation share their fate.
	h := pairHash(fromHost, toHost)
	u := float64(h%10000) / 10000
	if u < badPathProb(ra, rb) {
		c.capKbps *= 0.06
		if c.capKbps < 40 {
			c.capKbps = 40
		}
		c.congestion = 0.55
		c.congVar *= 1.3
		c.loss *= 3
		c.jitter *= 2
	}
	cong := c.congestion * t.CongestionScale
	if cong > 0.9 {
		cong = 0.9
	}
	return netsim.Route{
		OneWayDelay:    c.owd,
		Jitter:         c.jitter,
		LossRate:       c.loss,
		CapacityKbps:   c.capKbps,
		CongestionMean: cong,
		CongestionVar:  c.congVar * t.CongestionScale,
	}
}

// pairHash is a direction-independent FNV hash of the two host names.
func pairHash(a, b string) uint64 {
	if b < a {
		a, b = b, a
	}
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(a); i++ {
		h = (h ^ uint64(a[i])) * prime
	}
	h = (h ^ '|') * prime
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * prime
	}
	return h
}
