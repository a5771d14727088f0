// Package workload models an open user population for the streaming
// system: sessions arrive over time, choose what to watch, pick a server,
// and leave — in contrast to the paper's closed 63-user panel, where every
// participant walks one fixed playlist to completion.
//
// The package is pure draw logic: arrival processes (time-varying Poisson
// via thinning), Zipf clip popularity, session length and mid-stream
// abandonment. It owns no clock and no network — the study layer's session
// factory (internal/study) turns each draw into an attached host and a
// running tracer session on the simulated Internet, and removes the host
// again on departure. Everything is deterministic given the caller's RNG,
// which is what keeps open-loop campaign sweeps byte-identical across
// worker counts.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// RateFunc is an instantaneous arrival rate (sessions per second) at
// virtual time t. Time-varying rates drive the non-homogeneous arrival
// processes (diurnal cycles, flash crowds).
type RateFunc func(t time.Duration) float64

// Spec is one fully-resolved workload: how sessions arrive, what they
// watch, and how long they stay. Profiles in the catalog build Specs from
// an intensity knob and the run's horizon.
type Spec struct {
	// Name labels the workload in results ("poisson", "flashcrowd-2x").
	Name string
	// Rate is the arrival intensity over time; MaxRate bounds it (the
	// thinning envelope — Rate(t) must never exceed MaxRate).
	Rate    RateFunc
	MaxRate float64
	// ZipfS is the clip-popularity skew: popularity(rank r) ∝ 1/(r+1)^s
	// over the playlist. 0 means uniform.
	ZipfS float64
	// MeanClips is the mean session length in clips (geometric, ≥ 1).
	MeanClips float64
	// MaxClips caps a single session's length (0 = playlist size).
	MaxClips int
	// AbandonProb is the probability a session departs mid-stream: the
	// user hangs up inside a clip instead of between clips, which tears
	// the host out of the network with packets still in flight.
	AbandonProb float64

	// zipf is the lazily-built popularity table (zipfN entries), cached
	// so NextPlanInto does not rebuild the inverse CDF on every session.
	zipf  *Zipf
	zipfN int
}

// NextGap draws the inter-arrival gap from now to the next session using
// Lewis–Shedler thinning: candidate gaps come from a homogeneous Poisson
// process at MaxRate and are accepted with probability Rate(t)/MaxRate, so
// any bounded time-varying rate is exact. Deterministic given rng.
//
// A degenerate envelope is a hard error, not garbage output: MaxRate must be
// positive and finite (an empty template pool calibrates to rate 0, and
// float→int64 conversion of the resulting +Inf gap is undefined in Go — the
// arrival train would jump to an arbitrary virtual time). A Rate(t) above
// MaxRate breaks thinning's acceptance bound, so it is clamped to the
// envelope: the draw stream is untouched for every compliant profile, and a
// non-compliant one degrades to arrivals at MaxRate instead of silently
// producing a thinned process with the wrong distribution.
func (s *Spec) NextGap(now time.Duration, rng *rand.Rand) time.Duration {
	if !(s.MaxRate > 0) || math.IsInf(s.MaxRate, 1) {
		panic(fmt.Sprintf("workload: spec %q has degenerate MaxRate %v", s.Name, s.MaxRate))
	}
	t := now
	for {
		t += time.Duration(rng.ExpFloat64() / s.MaxRate * float64(time.Second))
		r := s.Rate(t)
		if r > s.MaxRate {
			r = s.MaxRate
		}
		if rng.Float64()*s.MaxRate <= r {
			return t - now
		}
	}
}

// Scaled returns a copy of the spec generating a frac share of the arrival
// process: Rate and MaxRate are both scaled, so thinning acceptance odds —
// and therefore the per-arrival draw count — are unchanged. Splitting a
// Poisson (or non-homogeneous Poisson) process by independent per-cell
// streams is again Poisson, which is what lets a sharded world run one
// arrival cell per region and still present a population whose aggregate
// intensity matches the single-stream world. The popularity cache is
// dropped: each cell lazily builds its own table, because the cache is
// written on the cell's own thread.
func (s Spec) Scaled(frac float64) Spec {
	inner := s.Rate
	s.Rate = func(t time.Duration) float64 { return inner(t) * frac }
	s.MaxRate *= frac
	s.zipf, s.zipfN = nil, 0
	return s
}

// Plan is one session's draw: which playlist entries the user will watch
// (in order), and whether/when the user abandons the session mid-stream.
type Plan struct {
	// Clips are playlist indices, drawn by Zipf popularity.
	Clips []int
	// DepartAfter, when positive, is the hard departure deadline measured
	// from session start: the user hangs up at that instant even if a clip
	// is still streaming. Zero means the session runs its playlist.
	DepartAfter time.Duration
}

// NextPlanInto draws one session: a geometric clip count with mean
// MeanClips, each clip chosen by Zipf popularity over playlistLen entries,
// plus the mid-stream abandonment draw. clipTime is the nominal per-clip
// wall time used to place the departure deadline inside the session's span.
// The drawn clip indices land in clips[:0] (grown as needed; nil is fine), so
// a session pool that keeps the returned Plan.Clips as its scratch draws
// plan after plan without allocating.
func (s *Spec) NextPlanInto(rng *rand.Rand, playlistLen int, clipTime time.Duration, clips []int) Plan {
	max := s.MaxClips
	if max <= 0 || max > playlistLen {
		max = playlistLen
	}
	n := 1
	if s.MeanClips > 1 {
		p := 1 / s.MeanClips
		for n < max && rng.Float64() > p {
			n++
		}
	}
	if s.zipf == nil || s.zipfN != playlistLen {
		s.zipf = NewZipf(s.ZipfS, playlistLen)
		s.zipfN = playlistLen
	}
	clips = clips[:0]
	for i := 0; i < n; i++ {
		clips = append(clips, s.zipf.Draw(rng))
	}
	plan := Plan{Clips: clips}
	if s.AbandonProb > 0 && rng.Float64() < s.AbandonProb {
		// Hang up somewhere inside the session's expected span — never at
		// the very start (the user at least began watching).
		span := float64(clipTime) * float64(n)
		plan.DepartAfter = time.Duration((0.2 + 0.6*rng.Float64()) * span)
	}
	return plan
}

// Zipf draws ranks 0..n-1 with probability ∝ 1/(rank+1)^s via an inverse-
// CDF table. s = 0 degenerates to uniform. Unlike math/rand's Zipf it
// accepts any s ≥ 0 (video-on-demand popularity is typically s ≈ 0.8–1.2,
// below rand.NewZipf's s > 1 requirement).
type Zipf struct {
	cdf []float64
}

// NewZipf builds the popularity table for n ranks at skew s.
func NewZipf(s float64, n int) *Zipf {
	if n < 1 {
		n = 1
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf}
}

// Draw returns a rank in [0, n).
func (z *Zipf) Draw(rng *rand.Rand) int {
	u := rng.Float64()
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// Profile is one catalog entry: a named arrival-process family, built into
// a concrete Spec from the calibrated base rate, the intensity knob, and
// the run's expected horizon. PanelName is not in this catalog — the
// closed-loop panel short-circuits before any workload draw.
type Profile struct {
	Name        string
	Description string
	// Build resolves the profile: rate is the intensity-scaled mean
	// arrival rate (sessions/sec), horizon the run's expected span.
	Build func(rate float64, horizon time.Duration) Spec
}

// PanelName names the closed-loop mode: the paper's fixed panel, where
// every user is scheduled at world construction and no arrival process
// runs. It is the default and must stay byte-identical to a build without
// the workload layer.
const PanelName = "panel"

// sessionDefaults fills the non-arrival knobs shared by every open-loop
// profile.
func sessionDefaults(s Spec) Spec {
	s.ZipfS = 1.0
	s.MeanClips = 4
	s.AbandonProb = 0.15
	return s
}

var profiles = map[string]Profile{
	"poisson": {
		Name:        "poisson",
		Description: "memoryless arrivals at a constant mean rate — the open-loop baseline",
		Build: func(rate float64, horizon time.Duration) Spec {
			return sessionDefaults(Spec{
				Name:    "poisson",
				Rate:    func(time.Duration) float64 { return rate },
				MaxRate: rate,
			})
		},
	},
	"diurnal": {
		Name:        "diurnal",
		Description: "diurnal-modulated arrivals: the rate swells and ebbs sinusoidally over two cycles of the run",
		Build: func(rate float64, horizon time.Duration) Spec {
			period := float64(horizon) / 2
			if period <= 0 {
				period = float64(time.Hour)
			}
			// 0.4 + 1.2·sin² has mean 1.0, so the configured rate is the
			// true mean; peak is 1.6x, trough 0.4x.
			return sessionDefaults(Spec{
				Name: "diurnal",
				Rate: func(t time.Duration) float64 {
					s := math.Sin(math.Pi * float64(t) / period)
					return rate * (0.4 + 1.2*s*s)
				},
				MaxRate: rate * 1.6,
			})
		},
	},
	"flashcrowd": {
		Name:        "flashcrowd",
		Description: "flash-crowd spike: baseline arrivals with a sharp 6x surge a third of the way in, decaying exponentially",
		Build: func(rate float64, horizon time.Duration) Spec {
			at := float64(horizon) / 3
			decay := float64(horizon) / 10
			if decay <= 0 {
				decay = float64(10 * time.Minute)
			}
			return sessionDefaults(Spec{
				Name: "flashcrowd",
				Rate: func(t time.Duration) float64 {
					if float64(t) < at {
						return rate
					}
					return rate * (1 + 6*math.Exp(-(float64(t)-at)/decay))
				},
				MaxRate: rate * 7,
			})
		},
	},
}

// Profiles lists the open-loop catalog, sorted by name. The closed-loop
// panel mode is listed first under PanelName so `-workload list` shows the
// default alongside the open-loop families.
func Profiles() []Profile {
	out := make([]Profile, 0, len(profiles)+1)
	out = append(out, Profile{
		Name:        PanelName,
		Description: "the paper's closed-loop 63-user panel (default; byte-identical to the classic study)",
	})
	rest := make([]Profile, 0, len(profiles))
	for _, p := range profiles {
		rest = append(rest, p)
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i].Name < rest[j].Name })
	return append(out, rest...)
}

// ProfileByName looks up one open-loop catalog entry. PanelName is not an
// open-loop profile and resolves to false.
func ProfileByName(name string) (Profile, bool) {
	p, ok := profiles[name]
	return p, ok
}
