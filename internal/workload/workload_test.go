package workload

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// drainArrivals draws n inter-arrival gaps and returns the total span.
func drainArrivals(t *testing.T, spec Spec, seed int64, n int) time.Duration {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	now := time.Duration(0)
	for i := 0; i < n; i++ {
		gap := spec.NextGap(now, rng)
		if gap < 0 {
			t.Fatalf("arrival %d: negative gap %v", i, gap)
		}
		now += gap
	}
	return now
}

// TestPoissonMeanRate: over many arrivals the observed mean rate must be
// within tolerance of the configured rate.
func TestPoissonMeanRate(t *testing.T) {
	p, ok := ProfileByName("poisson")
	if !ok {
		t.Fatal("poisson profile missing")
	}
	const rate = 2.0 // sessions/sec
	spec := p.Build(rate, time.Hour)
	const n = 5000
	span := drainArrivals(t, spec, 42, n)
	got := float64(n) / span.Seconds()
	if math.Abs(got-rate)/rate > 0.05 {
		t.Fatalf("observed rate %.3f/s, want %.1f/s ±5%%", got, rate)
	}
}

// TestDiurnalMeanRate: the sinusoidal modulation is calibrated to mean 1.0,
// so the long-run rate matches the configured one; and the process must
// actually vary (peak minute vs trough minute).
func TestDiurnalMeanRate(t *testing.T) {
	p, _ := ProfileByName("diurnal")
	const rate = 2.0
	horizon := 2 * time.Hour
	spec := p.Build(rate, horizon)
	rng := rand.New(rand.NewSource(7))
	now := time.Duration(0)
	n := 0
	perQuarter := make([]int, 4) // quarters of one period (= horizon/2)
	period := horizon / 2
	for now < horizon {
		now += spec.NextGap(now, rng)
		if now >= horizon {
			break
		}
		n++
		q := int(4*(now%period)/period) % 4
		perQuarter[q]++
	}
	got := float64(n) / horizon.Seconds()
	if math.Abs(got-rate)/rate > 0.08 {
		t.Fatalf("observed mean rate %.3f/s, want %.1f/s ±8%%", got, rate)
	}
	// sin² peaks in the middle two quarters of each period.
	mid := perQuarter[1] + perQuarter[2]
	edge := perQuarter[0] + perQuarter[3]
	if mid <= edge {
		t.Fatalf("diurnal modulation invisible: mid-period %d arrivals vs edges %d", mid, edge)
	}
}

// TestFlashCrowdSpikes: arrivals right after the spike instant must be much
// denser than the baseline before it.
func TestFlashCrowdSpikes(t *testing.T) {
	p, _ := ProfileByName("flashcrowd")
	const rate = 1.0
	horizon := 90 * time.Minute
	spec := p.Build(rate, horizon)
	rng := rand.New(rand.NewSource(3))
	now := time.Duration(0)
	window := horizon / 10
	spikeAt := horizon / 3
	before, after := 0, 0
	for now < horizon {
		now += spec.NextGap(now, rng)
		switch {
		case now >= spikeAt-window && now < spikeAt:
			before++
		case now >= spikeAt && now < spikeAt+window:
			after++
		}
	}
	if after < 3*before {
		t.Fatalf("flash crowd too weak: %d arrivals in the window after the spike vs %d before", after, before)
	}
}

// TestArrivalsDeterministic: a fixed seed reproduces the identical arrival
// sequence — the property open-loop campaign determinism rests on.
func TestArrivalsDeterministic(t *testing.T) {
	for _, name := range []string{"poisson", "diurnal", "flashcrowd"} {
		p, ok := ProfileByName(name)
		if !ok {
			t.Fatalf("profile %q missing", name)
		}
		spec := p.Build(0.5, time.Hour)
		a := drainArrivals(t, spec, 99, 500)
		b := drainArrivals(t, spec, 99, 500)
		if a != b {
			t.Fatalf("%s: same seed produced different spans: %v vs %v", name, a, b)
		}
	}
}

// TestZipfSkew: rank 0 must dominate under s=1 and the distribution must
// cover the tail; s=0 must be near-uniform.
func TestZipfSkew(t *testing.T) {
	const n = 98
	z := NewZipf(1.0, n)
	rng := rand.New(rand.NewSource(5))
	counts := make([]int, n)
	const draws = 50000
	for i := 0; i < draws; i++ {
		counts[z.Draw(rng)]++
	}
	if counts[0] < 5*counts[n-1] {
		t.Fatalf("zipf(1) not skewed: rank0=%d rank%d=%d", counts[0], n-1, counts[n-1])
	}
	// Harmonic normalization: P(rank 0) = 1/H(98) ≈ 0.194.
	want := draws / 5
	if counts[0] < want*7/10 || counts[0] > want*13/10 {
		t.Fatalf("zipf(1) head mass off: rank0=%d want ≈%d", counts[0], want)
	}
	u := NewZipf(0, n)
	uc := make([]int, n)
	for i := 0; i < draws; i++ {
		uc[u.Draw(rng)]++
	}
	if uc[0] > 2*uc[n-1] {
		t.Fatalf("zipf(0) should be uniform: rank0=%d rank%d=%d", uc[0], n-1, uc[n-1])
	}
}

// TestPlanShapes: session lengths are geometric with the configured mean,
// capped by the playlist, and the abandonment deadline lands inside the
// session span.
func TestPlanShapes(t *testing.T) {
	spec := Spec{ZipfS: 1, MeanClips: 4, AbandonProb: 0.5}
	rng := rand.New(rand.NewSource(11))
	total, aborted := 0, 0
	const sessions = 4000
	clipTime := time.Minute
	for i := 0; i < sessions; i++ {
		plan := spec.NextPlanInto(rng, 98, clipTime, nil)
		if len(plan.Clips) < 1 || len(plan.Clips) > 98 {
			t.Fatalf("plan has %d clips", len(plan.Clips))
		}
		for _, c := range plan.Clips {
			if c < 0 || c >= 98 {
				t.Fatalf("clip index %d out of range", c)
			}
		}
		total += len(plan.Clips)
		if plan.DepartAfter > 0 {
			aborted++
			span := time.Duration(len(plan.Clips)) * clipTime
			if plan.DepartAfter < span/5 || plan.DepartAfter > span*4/5 {
				t.Fatalf("departure deadline %v outside (0.2, 0.8) of span %v", plan.DepartAfter, span)
			}
		}
	}
	mean := float64(total) / sessions
	if mean < 3.2 || mean > 4.8 {
		t.Fatalf("mean session length %.2f clips, want ≈4", mean)
	}
	frac := float64(aborted) / sessions
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("abandonment fraction %.2f, want ≈0.5", frac)
	}
}

// TestPolicies pins the selection policies' deterministic choices.
func TestPolicies(t *testing.T) {
	cands := []Candidate{
		{RTT: 80 * time.Millisecond, Load: 3},
		{Home: true, RTT: 120 * time.Millisecond, Load: 0},
		{RTT: 30 * time.Millisecond, Load: 1},
		{RTT: 30 * time.Millisecond, Load: 0},
	}
	p, _ := PolicyByName("pinned")
	if got := p.Pick("u", cands); got != 1 {
		t.Fatalf("pinned picked %d, want home site 1", got)
	}
	p, _ = PolicyByName("rtt")
	if got := p.Pick("u", cands); got != 2 {
		t.Fatalf("rtt picked %d, want first lowest-RTT 2", got)
	}
	p, _ = PolicyByName("leastloaded")
	if got := p.Pick("u", cands); got != 3 {
		t.Fatalf("leastloaded picked %d, want load-0 lower-RTT 3", got)
	}
	rr, _ := PolicyByName("roundrobin")
	seq := []int{rr.Pick("u", cands), rr.Pick("u", cands), rr.Pick("u", cands), rr.Pick("u", cands), rr.Pick("u", cands)}
	want := []int{0, 1, 2, 3, 0}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("roundrobin sequence %v, want %v", seq, want)
		}
	}
	if _, ok := PolicyByName("nope"); ok {
		t.Fatal("unknown policy resolved")
	}
	names := PolicyNames()
	if names[0] != PinnedName || len(names) != 4 {
		t.Fatalf("PolicyNames() = %v", names)
	}
}

// TestProfileRegistry: the catalog lists panel first and resolves each
// open-loop family; panel itself is not an open-loop profile.
func TestProfileRegistry(t *testing.T) {
	ps := Profiles()
	if len(ps) != 4 || ps[0].Name != PanelName {
		t.Fatalf("Profiles() = %d entries, first %q", len(ps), ps[0].Name)
	}
	for _, name := range []string{"poisson", "diurnal", "flashcrowd"} {
		if _, ok := ProfileByName(name); !ok {
			t.Fatalf("profile %q missing", name)
		}
	}
	if _, ok := ProfileByName(PanelName); ok {
		t.Fatal("panel must not resolve as an open-loop profile")
	}
}

// TestNextGapRejectsDegenerateEnvelope: a zero, negative, NaN or infinite
// MaxRate must panic instead of producing garbage gaps. The zero case is
// the one that bit in production shape: an empty template pool calibrates
// to rate 0, ExpFloat64()/0 is +Inf, and converting that float to a
// time.Duration is undefined behavior in Go — the arrival train silently
// jumped to an arbitrary virtual time instead of failing.
func TestNextGapRejectsDegenerateEnvelope(t *testing.T) {
	for _, maxRate := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		s := Spec{Name: "degenerate", Rate: func(time.Duration) float64 { return 1 }, MaxRate: maxRate}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NextGap accepted MaxRate %v", maxRate)
				}
			}()
			s.NextGap(0, rand.New(rand.NewSource(1)))
		}()
	}
}

// TestNextGapClampsRateToEnvelope: a profile whose Rate(t) exceeds MaxRate
// breaks the thinning acceptance bound. The draw must clamp to the
// envelope — giving exactly the draw stream of a compliant rate == MaxRate
// process — rather than silently distorting acceptance probabilities.
func TestNextGapClampsRateToEnvelope(t *testing.T) {
	over := Spec{Name: "over", Rate: func(time.Duration) float64 { return 50 }, MaxRate: 10}
	flat := Spec{Name: "flat", Rate: func(time.Duration) float64 { return 10 }, MaxRate: 10}
	a, b := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	now := time.Duration(0)
	for i := 0; i < 1000; i++ {
		ga, gb := over.NextGap(now, a), flat.NextGap(now, b)
		if ga != gb {
			t.Fatalf("draw %d: clamped gap %v != compliant gap %v", i, ga, gb)
		}
		if ga <= 0 {
			t.Fatalf("draw %d: non-positive gap %v", i, ga)
		}
		now += ga
	}
}

// TestScaledSplitsThePoissonStream: Scaled(frac) must scale Rate and
// MaxRate together, leaving thinning acceptance odds — and therefore the
// per-arrival RNG draw count — untouched. Two identical RNGs stay in
// lockstep across a draw from the full and the scaled spec; that lockstep
// is what makes a sharded world's per-cell arrival streams a true Poisson
// split instead of a different process.
func TestScaledSplitsThePoissonStream(t *testing.T) {
	full := Spec{Name: "full", Rate: func(time.Duration) float64 { return 4 }, MaxRate: 4, ZipfS: 1}
	half := full.Scaled(0.5)
	if half.MaxRate != 2 {
		t.Fatalf("Scaled(0.5) MaxRate = %v, want 2", half.MaxRate)
	}
	if got := half.Rate(0); got != 2 {
		t.Fatalf("Scaled(0.5) Rate(0) = %v, want 2", got)
	}
	a, b := rand.New(rand.NewSource(99)), rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		full.NextGap(0, a)
		half.NextGap(0, b)
		if av, bv := a.Int63(), b.Int63(); av != bv {
			t.Fatalf("draw %d: RNGs out of lockstep (%d vs %d) — acceptance odds changed", i, av, bv)
		}
	}
}
