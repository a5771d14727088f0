// Package study orchestrates the full measurement campaign: it builds the
// June-2001 world (11 RealServers in 8 countries, 63 users in 12 countries,
// the wide-area network between them), runs every user's RealTracer session
// over the discrete-event simulator, and returns the per-clip records that
// the figures are computed from.
//
// One seed reproduces one complete study; the default options reproduce the
// paper's dataset in shape (≈2855 clips played, ≈388 rated).
package study

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"time"

	"realtracer/internal/detrand"
	"realtracer/internal/geo"
	"realtracer/internal/media"
	"realtracer/internal/netsim"
	"realtracer/internal/ratecontrol"
	"realtracer/internal/trace"
	"realtracer/internal/workload"
)

// Options configure a study run. The zero value (plus a seed) reproduces
// the paper's setup; the remaining knobs drive the ablation benches.
type Options struct {
	Seed int64
	// MaxUsers truncates the population for quick tests (0 = all 63).
	MaxUsers int
	// ClipCap truncates each user's playlist progress (0 = the user's own
	// draw). Useful to shrink test runs.
	ClipCap int
	// DisableSureStream, DisableFEC, Preroll and Controller are ablation
	// knobs for the DESIGN.md experiments.
	DisableSureStream bool
	DisableFEC        bool
	Preroll           time.Duration
	// Controller selects the UDP rate controller: "" or "tfrc", "aimd",
	// "unresponsive".
	Controller string
	// CongestionScale scales wide-area cross traffic (1 = calibrated).
	CongestionScale float64
	// Dynamics names a network-dynamics profile from the catalog in
	// dynamics.go ("outage", "flashcrowd", "lossburst", "diurnal",
	// "routeflap"); "" keeps the classic static Internet, byte-identical to
	// a build without the dynamics layer.
	Dynamics string
	// DynamicsIntensity scales the profile (0 = the calibrated 1x).
	DynamicsIntensity float64
	// DynamicsSeed drives the profile's own randomness (loss-burst chains);
	// 0 derives Seed+4. The campaign engine derives an explicit per-scenario
	// value so campaign results are independent of worker count.
	DynamicsSeed int64
	// Workload names an arrival-process profile from the open-loop
	// catalog (internal/workload: "poisson", "diurnal", "flashcrowd").
	// "" or "panel" keeps the paper's closed-loop panel — one arrival per
	// user at its stagger instant, its session drawn at build time —
	// byte-identical to a build without the workload layer. Any other
	// profile switches the world to open-loop mode: sessions arrive over
	// time, draw clips by Zipf popularity, attach their host on arrival and
	// remove it on departure.
	Workload string
	// WorkloadIntensity scales the arrival rate (0 = the calibrated 1x,
	// which targets ~40% steady-state occupancy of the template pool).
	WorkloadIntensity float64
	// WorkloadSeed drives the arrival, popularity and abandonment draws;
	// 0 derives Seed+5. The campaign engine derives an explicit
	// per-scenario value so open-loop campaign records are independent of
	// worker count.
	WorkloadSeed int64
	// Arrivals bounds an open-loop run: how many sessions the workload
	// generator admits in total (0 = twice the template pool).
	Arrivals int
	// Selection names the server-selection policy for open-loop runs:
	// "pinned" (paper-faithful home site, the default), "rtt",
	// "roundrobin" or "leastloaded". Setting it on a closed-loop run is
	// an error — the panel always plays from the home site.
	Selection string
	// Shards splits the world across that many cores: hosts are partitioned
	// into per-shard clocks and event heaps synchronized with conservative
	// lookahead (netsim.Fabric). 0 keeps the classic single-threaded engine.
	// Sharding requires an open-loop Workload and composes with every
	// Dynamics profile (one compiled schedule shared read-only across the
	// shards) and every Selection policy ("leastloaded" reads
	// lookahead-delayed load gossip instead of live counters). For a fixed
	// seed the output is byte-identical for every Shards >= 1.
	Shards int
}

const (
	// staggerWindow spreads the panel's user start times. Overlap creates
	// shared-bottleneck load at servers.
	staggerWindow = 90 * time.Minute
	// serverUplinkKbps is every server's access capacity: the shared
	// multi-T1/fractional-T3 uplink the figures were calibrated against.
	serverUplinkKbps = 8000
)

func (o *Options) fill() {
	o.CongestionScale = cmp.Or(o.CongestionScale, 1)
	if o.OpenLoop() && o.Arrivals == 0 {
		o.Arrivals = 2 * o.pool()
	}
}

// pool is the size of the population the options build: the panel, or an
// open-loop world's template pool.
func (o Options) pool() int {
	if o.MaxUsers <= 0 {
		return geo.PopulationSize
	}
	return o.MaxUsers
}

// OpenLoop reports whether the options select the open-loop session
// engine. "" and "panel" are both the classic closed-loop panel.
func (o Options) OpenLoop() bool {
	return o.Workload != "" && o.Workload != workload.PanelName
}

// PolicyLabel is the server-selection label stamped on the run's records:
// "" for the closed-loop panel (which has no selection step), otherwise
// the policy name with "pinned" as the default.
func (o Options) PolicyLabel() string {
	if !o.OpenLoop() {
		return ""
	}
	return cmp.Or(o.Selection, workload.PinnedName)
}

// The seed table. Every stream a world runs on is seeded here, by purpose,
// and nowhere else: a run is a function of its options, and these methods
// are where that function starts. The fork label names the stream in a
// named fork (checkpoint.go), which restarts it at a seed derived from the
// label; a stream without one is drawn only while the world is built.
//
//	purpose                   seed                            fork label
//	master stream             Seed, drawn up front            —
//	population                Seed+1                          —
//	network                   Seed+3                          "net"
//	dynamics schedule         DynamicsSeed, or Seed+4         "dynamics"
//	workload                  WorkloadSeed, or Seed+5         —
//	arrival cell ci           workload (classic engine), or   "arrivals"
//	                          workload+cellStride·(ci+1)
//	clip library of site si   Seed+100+si                     —
//	server of site si         master draw                     "server:HOST"
//	panel user u              master draw                     "user:NAME"
//
// Seed+2 is unused: routes are hashed, not drawn. A panel user's stream is
// its cell's session stream, built by panelCells; an open-loop session's
// stream is reseeded per launch from its cell's stream (launchSession) and
// forks as "session:NAME", and netsim derives each fabric path's stream from
// the network seed and the pair's host IDs.

// cellStride spaces the arrival cells' seeds on a fabric.
const cellStride = 100003

// PopulationSeed is the seed the user population is drawn from.
func (o Options) PopulationSeed() int64 { return o.Seed + 1 }

// networkSeed seeds the network's stream and a fabric's path streams.
func (o Options) networkSeed() int64 { return o.Seed + 3 }

// dynamicsSeed is the seed the dynamics schedule's own randomness runs on.
func (o Options) dynamicsSeed() int64 { return cmp.Or(o.DynamicsSeed, o.Seed+4) }

// cellSeed is arrival cell ci's seed: the workload seed itself for the
// classic engine's one cell, spaced by cellStride on a fabric.
func (o Options) cellSeed(ci int, sharded bool) int64 {
	seed := cmp.Or(o.WorkloadSeed, o.Seed+5)
	if sharded {
		seed += cellStride * int64(ci+1)
	}
	return seed
}

// librarySeed is the clip library seed of site si (an index into sites).
func (o Options) librarySeed(si int) int64 { return o.Seed + 100 + int64(si) }

// masterSeeds draws the master stream up front, in the order the build
// always drew it: one seed per active site in site order, then one per
// panel user. Site si's server runs on sites[si] (0 for a site that serves
// no clips), panel user u on panel[u]; an open-loop world has no panel.
func (o Options) masterSeeds(sites []geo.ServerSite) (siteSeeds, panel []int64) {
	n := len(sites)
	if !o.OpenLoop() {
		n += o.pool()
	}
	master := detrand.Plain(o.Seed)
	seeds := make([]int64, n)
	for i := range seeds {
		if i >= len(sites) || sites[i].Clips > 0 {
			seeds[i] = master.Int63()
		}
	}
	return seeds[:len(sites)], seeds[len(sites):]
}

// validate rejects options that would silently build an empty or nonsense
// world. It runs before fill, so zero values (which fill resolves to
// defaults) are still fine.
func (o Options) validate() error {
	if o.MaxUsers < 0 {
		return fmt.Errorf("study: MaxUsers must be >= 0, got %d", o.MaxUsers)
	}
	if o.ClipCap < 0 {
		return fmt.Errorf("study: ClipCap must be >= 0, got %d", o.ClipCap)
	}
	if o.Arrivals < 0 {
		return fmt.Errorf("study: Arrivals must be >= 0, got %d", o.Arrivals)
	}
	for _, k := range []struct {
		name string
		v    float64
	}{
		{"DynamicsIntensity", o.DynamicsIntensity},
		{"WorkloadIntensity", o.WorkloadIntensity},
		{"CongestionScale", o.CongestionScale},
	} {
		// NaN passes every ordered comparison, and an infinite scale builds
		// a world that runs and measures nothing.
		if math.IsNaN(k.v) || math.IsInf(k.v, 0) || k.v < 0 {
			return fmt.Errorf("study: %s must be a finite number >= 0, got %g", k.name, k.v)
		}
	}
	if controllerFactory(o.Controller) == nil {
		return fmt.Errorf("study: unknown Controller %q; want \"tfrc\", \"aimd\" or \"unresponsive\"", o.Controller)
	}
	if o.Shards < 0 {
		return fmt.Errorf("study: Shards must be >= 0, got %d", o.Shards)
	}
	// A shard with no template can own no cell, and a fabric's outbox matrix
	// is Shards² however few hosts there are to put in it.
	if pool := o.pool(); o.Shards > pool {
		return fmt.Errorf("study: Shards %d exceeds the template pool of %d users; a shard with no template can own no cell", o.Shards, pool)
	}
	if o.Shards > 0 && !o.OpenLoop() {
		return fmt.Errorf("study: Shards %d needs an open-loop Workload; the closed panel runs single-threaded", o.Shards)
	}
	if !o.OpenLoop() {
		// Every open-loop knob is meaningless on the closed panel; accept
		// none of them silently.
		if o.Selection != "" {
			return fmt.Errorf("study: Selection %q needs an open-loop Workload; the panel always plays from the home site", o.Selection)
		}
		if o.WorkloadIntensity != 0 {
			return fmt.Errorf("study: WorkloadIntensity %g needs an open-loop Workload", o.WorkloadIntensity)
		}
		if o.Arrivals != 0 {
			return fmt.Errorf("study: Arrivals %d needs an open-loop Workload", o.Arrivals)
		}
		if o.WorkloadSeed != 0 {
			return fmt.Errorf("study: WorkloadSeed %d needs an open-loop Workload", o.WorkloadSeed)
		}
	}
	return nil
}

// Result is a completed study.
type Result struct {
	// Records is the run's per-clip records when the world's sink was a
	// trace.Collector (the default); nil under any other sink.
	Records []*trace.Record
	Users   []*geo.User
	// SimDuration is how much virtual time the campaign took.
	SimDuration time.Duration
	// Events is the simulator event count (diagnostics).
	Events uint64
	// Sessions, Balked and Departed describe an open-loop run: sessions
	// launched, arrivals turned away because every template was busy, and
	// sessions that hung up mid-stream. All zero for the closed panel, whose
	// users' sessions were drawn with the world, not launched by arrivals.
	Sessions int
	Balked   int
	Departed int
	// Windows is what the fabric's window protocol did over a sharded run
	// (Options.Shards >= 1): windows, events on the critical path, skipped
	// and parked hand-offs. Zero for the classic engine.
	Windows netsim.WindowStats
}

// Run executes the campaign and returns its records. It is a thin wrapper
// over the World layer: build the world, drive it to completion.
func Run(opt Options) (*Result, error) {
	w, err := NewWorld(opt)
	if err != nil {
		return nil, err
	}
	return w.Run()
}

// controllerFactory builds the named UDP rate controller, or returns nil for
// a name validate refuses.
func controllerFactory(name string) func(float64) ratecontrol.Controller {
	lim := ratecontrol.DefaultLimits()
	switch name {
	case "", "tfrc":
		return func(start float64) ratecontrol.Controller { return ratecontrol.NewTFRC(start, 1000, lim) }
	case "aimd":
		return func(start float64) ratecontrol.Controller { return ratecontrol.NewAIMD(start, lim) }
	case "unresponsive":
		return func(start float64) ratecontrol.Controller { return &ratecontrol.Unresponsive{Kbps: start} }
	}
	return nil
}

// rater implements the perceptual-rating model of Section V.C. Users anchor
// around a personal centre ("normalization"), adjust it modestly for what
// they actually saw, and differ on criteria (video-only vs audio+video,
// subject-matter taste), which together flatten the population-level rating
// CDF to near-uniform with mean ≈ 5 while preserving the within-user
// signal the authors expected to mine later.
type rater struct {
	user *geo.User
	rng  *rand.Rand
}

// rate maps a clip record to the user's 0-10 score.
func (r *rater) rate(rec *trace.Record) float64 {
	// Objective quality in roughly [-1, 1].
	q := qualityScore(rec, r.user.RatesAVTogether)
	// Subject-matter taste: some users rated content, not delivery.
	taste := r.rng.NormFloat64() * 1.2
	score := r.user.RatingAnchor + 2.2*q + taste
	// High-bandwidth sessions never rate very low (Figure 28's empty
	// lower-right corner): good delivery puts a floor under the score.
	if rec.MeasuredKbps > 250 && score < 3 {
		score = 3 + r.rng.Float64()
	}
	if score < 0 {
		score = 0
	}
	if score > 10 {
		score = 10
	}
	// Users rated whole numbers on the slider.
	return float64(int(score + 0.5))
}

// qualityScore folds frame rate, jitter and stalls into [-1, 1].
func qualityScore(rec *trace.Record, avTogether bool) float64 {
	var q float64
	switch {
	case rec.MeasuredFPS >= media.SmoothFPS:
		q += 0.8
	case rec.MeasuredFPS >= media.VeryChoppyFPS:
		q += 0.3
	case rec.MeasuredFPS >= media.MinAcceptableFPS:
		q -= 0.2
	default:
		q -= 0.8
	}
	switch {
	case rec.JitterMs <= 50:
		q += 0.3
	case rec.JitterMs >= 300:
		q -= 0.5
	}
	if rec.Rebuffers > 0 {
		q -= 0.3 * float64(rec.Rebuffers)
	}
	if avTogether {
		// Audio survives almost everything (it gets bandwidth priority), so
		// audio+video raters are systematically kinder on bad video.
		q = q*0.6 + 0.2
	}
	if q < -1 {
		q = -1
	}
	if q > 1 {
		q = 1
	}
	return q
}
