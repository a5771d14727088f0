package figures

import (
	"sort"

	"realtracer/internal/stats"
	"realtracer/internal/trace"
)

// ratedPairCap bounds the (bandwidth, rating) pairs retained for the
// Figure-28 scatter. Pearson correlation and the low-rating-at-high-
// bandwidth count stay exact past the cap (they stream); only the plotted
// point cloud becomes a prefix sample, and the figure notes say so.
const ratedPairCap = 65536

// userTally is one user's per-record counts (Figures 5 and 6).
type userTally struct {
	plays int
	rated int
}

// Aggregates is the single-pass, mergeable aggregation every figure is
// computed from. It implements trace.Sink, so records can stream straight
// out of a running world into it — memory is bounded by the aggregate's
// own size (group count, sketch bins, per-user tallies), not by the record
// count.
//
// On seed-size studies every distribution stays on its sketch's exact
// small-sample path, so the figures produced from an Aggregates are
// byte-identical to the old multi-pass generators (the golden test pins
// this). At population scale the distributions fold into fixed-resolution
// bins with a bounded relative error.
//
// Partial Aggregates (one per campaign scenario, or per worker) merge with
// Merge; merging in input order yields identical results regardless of
// how many workers produced the partials.
type Aggregates struct {
	total       int
	played      int
	rated       int
	unavailable int
	failed      int

	perUser map[string]*userTally

	countryAll       stats.Counter
	serverCountryAll stats.Counter
	usStateAll       stats.Counter
	serverAttempts   stats.Counter
	serverUnavail    stats.Counter
	protoPlayed      stats.Counter

	fpsAll    *stats.Dist
	jitAll    *stats.Dist
	ratingAll *stats.Dist

	fpsByAccess       stats.Grouped
	fpsByServerRegion stats.Grouped
	fpsByUserRegion   stats.Grouped
	fpsByProtocol     stats.Grouped
	fpsByPC           stats.Grouped
	kbpsByAccess      stats.Grouped
	kbpsByProtocol    stats.Grouped
	jitByAccess       stats.Grouped
	jitByServerRegion stats.Grouped
	jitByUserRegion   stats.Grouped
	jitByProtocol     stats.Grouped
	jitByBand         stats.Grouped
	ratingByAccess    stats.Grouped

	ratedKbps         []float64
	ratedRating       []float64
	ratedPairsDropped int
	ratedCorr         stats.Corr
	lowRatedHighBW    int

	// Robustness breakdown by network-dynamics regime (Record.Dynamics;
	// "" groups under "steady"): how often playback stalled, how often the
	// server switched streams, and what frame rate survived, per condition.
	rebufByDynamics  stats.Grouped
	switchByDynamics stats.Grouped
	fpsByDynamics    stats.Grouped
	failedByDynamics stats.Counter
	playedByDynamics stats.Counter

	// Workload breakdown by server-selection policy (Record.Policy, set
	// only by open-loop runs): startup delay, stalls, and how plays spread
	// across the mirror servers — the load-balance contrast between
	// pinned, RTT, round-robin and least-loaded selection.
	startupByPolicy stats.Grouped
	rebufByPolicy   stats.Grouped
	playedByPolicy  stats.Counter
	failedByPolicy  stats.Counter
	policyServer    stats.Counter // "policy|server" play counts
	// psKeys interns policyServer's labels by (policy, server), so a play
	// of a pair already seen is counted without building its label again.
	psKeys map[[2]string]string
	// concurDelta is the concurrent-clip time-series sketch: +1 at each
	// clip's start minute, −1 at its end minute (virtual time). The
	// prefix sum over sorted minutes is the concurrency level; memory is
	// bounded by the run's span in minutes, and partials merge by adding
	// deltas.
	concurDelta map[int]int
}

// NewAggregates returns an empty aggregate build.
func NewAggregates() *Aggregates {
	return &Aggregates{
		perUser:   make(map[string]*userTally),
		fpsAll:    stats.NewDist(),
		jitAll:    stats.NewDist(),
		ratingAll: stats.NewDist(),
	}
}

// counters, dists and groups list every accumulator field once, for the
// walks that treat them alike (Merge and Sync).
func (a *Aggregates) counters() []*stats.Counter {
	return []*stats.Counter{&a.countryAll, &a.serverCountryAll, &a.usStateAll, &a.serverAttempts,
		&a.serverUnavail, &a.protoPlayed, &a.failedByDynamics, &a.playedByDynamics,
		&a.playedByPolicy, &a.failedByPolicy, &a.policyServer}
}

func (a *Aggregates) dists() []*stats.Dist {
	return []*stats.Dist{a.fpsAll, a.jitAll, a.ratingAll}
}

func (a *Aggregates) groups() []*stats.Grouped {
	return []*stats.Grouped{&a.fpsByAccess, &a.fpsByServerRegion, &a.fpsByUserRegion, &a.fpsByProtocol,
		&a.fpsByPC, &a.kbpsByAccess, &a.kbpsByProtocol, &a.jitByAccess, &a.jitByServerRegion,
		&a.jitByUserRegion, &a.jitByProtocol, &a.jitByBand, &a.ratingByAccess,
		&a.rebufByDynamics, &a.switchByDynamics, &a.fpsByDynamics, &a.startupByPolicy, &a.rebufByPolicy}
}

// Aggregate builds the aggregates from an in-memory record slice — the
// compatibility path for small studies and the trace-file analysis tool.
func Aggregate(recs []*trace.Record) *Aggregates {
	a := NewAggregates()
	for _, r := range recs {
		a.Observe(r)
	}
	return a
}

// Observe implements trace.Sink: fold one record into every aggregate.
func (a *Aggregates) Observe(r *trace.Record) {
	a.total++
	t := a.perUser[r.User]
	if t == nil {
		t = &userTally{}
		a.perUser[r.User] = t
	}
	t.plays++
	if r.Rated {
		t.rated++
	}
	if r.Country != "" {
		a.countryAll.Add(r.Country, 1)
	}
	if r.ServerCountry != "" {
		a.serverCountryAll.Add(r.ServerCountry, 1)
	}
	if r.Country == "US" && r.State != "" {
		a.usStateAll.Add(r.State, 1)
	}
	a.serverAttempts.Add(r.Server, 1)
	if r.Unavailable {
		a.unavailable++
		a.serverUnavail.Add(r.Server, 1)
	}
	if r.Failed {
		a.failed++
		a.failedByDynamics.Add(dynCondition(r), 1)
		if r.Policy != "" {
			a.failedByPolicy.Add(r.Policy, 1)
		}
	}
	if r.EndSec > r.StartSec {
		if a.concurDelta == nil {
			a.concurDelta = make(map[int]int)
		}
		a.concurDelta[int(r.StartSec/60)]++
		a.concurDelta[int(r.EndSec/60)]--
	}
	if r.Unavailable || r.Failed {
		return
	}

	// Played-clip aggregates (the denominator of the performance figures).
	a.played++
	a.protoPlayed.Add(r.Protocol, 1)
	fps, kbps, jit := r.MeasuredFPS, r.MeasuredKbps, r.JitterMs
	a.fpsAll.Add(fps)
	a.jitAll.Add(jit)
	if r.Access != "" {
		a.fpsByAccess.Add(r.Access, fps)
		a.kbpsByAccess.Add(r.Access, kbps)
		a.jitByAccess.Add(r.Access, jit)
	}
	if r.ServerRegion != "" {
		a.fpsByServerRegion.Add(r.ServerRegion, fps)
		a.jitByServerRegion.Add(r.ServerRegion, jit)
	}
	if r.Region != "" {
		a.fpsByUserRegion.Add(r.Region, fps)
		a.jitByUserRegion.Add(r.Region, jit)
	}
	if r.Protocol != "" {
		a.fpsByProtocol.Add(r.Protocol, fps)
		a.kbpsByProtocol.Add(r.Protocol, kbps)
		a.jitByProtocol.Add(r.Protocol, jit)
	}
	if r.PCClass != "" {
		a.fpsByPC.Add(r.PCClass, fps)
	}
	a.jitByBand.Add(bandwidthBand(r), jit)
	if r.Policy != "" {
		a.playedByPolicy.Add(r.Policy, 1)
		a.startupByPolicy.Add(r.Policy, r.BufferingTime.Seconds())
		a.rebufByPolicy.Add(r.Policy, float64(r.Rebuffers))
		a.policyServer.Add(a.policyServerKey(r.Policy, r.Server), 1)
	}
	cond := dynCondition(r)
	a.playedByDynamics.Add(cond, 1)
	a.rebufByDynamics.Add(cond, float64(r.Rebuffers))
	a.switchByDynamics.Add(cond, float64(r.Switches))
	a.fpsByDynamics.Add(cond, fps)

	if !r.Rated {
		return
	}
	a.rated++
	a.ratingAll.Add(r.Rating)
	if r.Access != "" {
		a.ratingByAccess.Add(r.Access, r.Rating)
	}
	a.ratedCorr.Add(kbps, r.Rating)
	if kbps > 250 && r.Rating < 3 {
		a.lowRatedHighBW++
	}
	if len(a.ratedKbps) < ratedPairCap {
		a.ratedKbps = append(a.ratedKbps, kbps)
		a.ratedRating = append(a.ratedRating, r.Rating)
	} else {
		a.ratedPairsDropped++
	}
}

// policyServerKey returns policyServer's "policy|server" label for the pair.
func (a *Aggregates) policyServerKey(policy, server string) string {
	pair := [2]string{policy, server}
	key, ok := a.psKeys[pair]
	if !ok {
		if a.psKeys == nil {
			a.psKeys = make(map[[2]string]string)
		}
		key = policy + "|" + server
		a.psKeys[pair] = key
	}
	return key
}

// Merge folds b into a; b is unchanged. Merging partials in a fixed input
// order is deterministic regardless of which workers produced them.
func (a *Aggregates) Merge(b *Aggregates) {
	if b == nil {
		return
	}
	a.total += b.total
	a.played += b.played
	a.rated += b.rated
	a.unavailable += b.unavailable
	a.failed += b.failed
	for u, bt := range b.perUser {
		t := a.perUser[u]
		if t == nil {
			t = &userTally{}
			a.perUser[u] = t
		}
		t.plays += bt.plays
		t.rated += bt.rated
	}
	ac, ad, ag := a.counters(), a.dists(), a.groups()
	for i, t := range b.counters() {
		ac[i].Merge(t)
	}
	for i, d := range b.dists() {
		ad[i].Merge(d)
	}
	for i, g := range b.groups() {
		ag[i].Merge(g)
	}
	a.ratedCorr.Merge(b.ratedCorr)
	a.lowRatedHighBW += b.lowRatedHighBW
	for m, d := range b.concurDelta {
		if a.concurDelta == nil {
			a.concurDelta = make(map[int]int)
		}
		a.concurDelta[m] += d
	}
	room := ratedPairCap - len(a.ratedKbps)
	if room > len(b.ratedKbps) {
		room = len(b.ratedKbps)
	}
	a.ratedKbps = append(a.ratedKbps, b.ratedKbps[:room]...)
	a.ratedRating = append(a.ratedRating, b.ratedRating[:room]...)
	a.ratedPairsDropped += b.ratedPairsDropped + len(b.ratedKbps) - room
}

// Total returns the number of clip attempts observed.
func (a *Aggregates) Total() int { return a.total }

// Played returns the number of clips that streamed data.
func (a *Aggregates) Played() int { return a.played }

// Rated returns the watched-and-rated count.
func (a *Aggregates) Rated() int { return a.rated }

// Unavailable returns how many attempts found the clip unavailable.
func (a *Aggregates) Unavailable() int { return a.unavailable }

// Failed returns how many attempts failed outright.
func (a *Aggregates) Failed() int { return a.failed }

// Users returns the number of distinct users observed.
func (a *Aggregates) Users() int { return len(a.perUser) }

// ProtocolPlayed returns the played-clip count for one transport protocol.
func (a *Aggregates) ProtocolPlayed(proto string) int { return a.protoPlayed.Get(proto) }

// FrameRate returns the frame-rate distribution over played clips.
func (a *Aggregates) FrameRate() *stats.Dist { return a.fpsAll }

// Jitter returns the jitter distribution over played clips.
func (a *Aggregates) Jitter() *stats.Dist { return a.jitAll }

// Rating returns the quality-rating distribution over rated clips.
func (a *Aggregates) Rating() *stats.Dist { return a.ratingAll }

// SteadyCondition labels records that played under the static baseline
// Internet in the robustness breakdown.
const SteadyCondition = "steady"

// dynCondition maps a record to its robustness-breakdown key.
func dynCondition(r *trace.Record) string {
	if r.Dynamics == "" {
		return SteadyCondition
	}
	return r.Dynamics
}

// RobustnessRow is one dynamics regime's robustness summary.
type RobustnessRow struct {
	// Condition is the dynamics profile name, or SteadyCondition.
	Condition string
	// Played and Failed count clips under the condition.
	Played, Failed int
	// MeanRebuffers and P90Rebuffers summarize mid-playout stalls.
	MeanRebuffers, P90Rebuffers float64
	// MeanSwitches is the average SureStream switch count — how hard the
	// server worked to ride the weather.
	MeanSwitches float64
	// MeanFPS is the frame rate that survived the condition.
	MeanFPS float64
}

// Robustness returns the per-dynamics-condition robustness breakdown,
// sorted by condition name. One condition per campaign scenario normally;
// merged campaign aggregates carry every regime side by side.
func (a *Aggregates) Robustness() []RobustnessRow {
	// Union the played and failed key sets: a regime harsh enough to fail
	// every clip still earns a row.
	seen := map[string]bool{}
	var keys []string
	for _, k := range a.rebufByDynamics.Keys() {
		seen[k] = true
		keys = append(keys, k)
	}
	for _, k := range a.failedByDynamics.Keys() {
		if !seen[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := make([]RobustnessRow, 0, len(keys))
	for _, k := range keys {
		reb := a.rebufByDynamics.Get(k)
		row := RobustnessRow{
			Condition:     k,
			Played:        a.playedByDynamics.Get(k),
			Failed:        a.failedByDynamics.Get(k),
			MeanRebuffers: distMean(reb),
			P90Rebuffers:  distQuantile(reb, 0.9),
			MeanSwitches:  distMean(a.switchByDynamics.Get(k)),
			MeanFPS:       distMean(a.fpsByDynamics.Get(k)),
		}
		out = append(out, row)
	}
	return out
}

// --- shared builder helpers ---

// perUserCounts returns the per-user tallies (all plays, or rated plays)
// sorted ascending — the Figure 5/6 sample.
func (a *Aggregates) perUserCounts(rated bool) []float64 {
	out := make([]float64, 0, len(a.perUser))
	for _, t := range a.perUser {
		if rated {
			out = append(out, float64(t.rated))
		} else {
			out = append(out, float64(t.plays))
		}
	}
	sort.Float64s(out)
	return out
}

// distCDFSeries converts a distribution to a plottable CDF series, the
// streaming replacement for cdfSeries.
func distCDFSeries(label string, d *stats.Dist) Series {
	if d == nil {
		return Series{Label: label}
	}
	c, err := d.CDF()
	if err != nil {
		return Series{Label: label}
	}
	xs, fs := c.Points(64)
	return Series{Label: label, X: xs, Y: fs}
}

// groupedCDF builds one CDF series per group, in the given order (or
// sorted-key order when order is nil), skipping empty groups — the
// streaming replacement for splitCDF.
func groupedCDF(g *stats.Grouped, order []string) []Series {
	if order == nil {
		order = g.Keys()
	}
	var out []Series
	for _, k := range order {
		if d := g.Get(k); d != nil && d.N() > 0 {
			out = append(out, distCDFSeries(k, d))
		}
	}
	return out
}

// barFromCounter renders a tally as a bar series sorted by ascending count
// (ties by label), the streaming replacement for barByKey.
func barFromCounter(c *stats.Counter) Series {
	keys := c.Keys()
	sort.SliceStable(keys, func(i, j int) bool { return c.Get(keys[i]) < c.Get(keys[j]) })
	s := Series{}
	for _, k := range keys {
		s.Labels = append(s.Labels, k)
		s.Y = append(s.Y, float64(c.Get(k)))
	}
	return s
}

// distMean returns the group mean, 0 for an absent group (mirroring
// stats.Mean over an empty slice).
func distMean(d *stats.Dist) float64 {
	if d == nil {
		return 0
	}
	return d.Mean()
}

// distQuantile returns the group quantile, 0 for an absent group.
func distQuantile(d *stats.Dist, q float64) float64 {
	if d == nil {
		return 0
	}
	return d.Quantile(q)
}

// distN returns the group sample count, 0 for an absent group.
func distN(d *stats.Dist) int {
	if d == nil {
		return 0
	}
	return d.N()
}

// --- figure builders (one per paper figure, all single-pass) ---

// Fig05ClipsPerUser: half the users played 40 clips or more.
func (a *Aggregates) Fig05ClipsPerUser() Figure {
	counts := a.perUserCounts(false)
	f := Figure{ID: "fig05", Title: "CDF of video clips played per user", Kind: KindCDF,
		Series: []Series{cdfSeries("all users", counts)}}
	if s, err := stats.Summarize(counts); err == nil {
		note(&f, "users=%d median clips=%.0f (paper: half played 40+ of 98)", s.N, s.Median)
	}
	return f
}

// Fig06RatedPerUser: half the users rated about 3 clips.
func (a *Aggregates) Fig06RatedPerUser() Figure {
	counts := a.perUserCounts(true)
	f := Figure{ID: "fig06", Title: "CDF of video clips rated per user", Kind: KindCDF,
		Series: []Series{cdfSeries("all users", counts)}}
	if s, err := stats.Summarize(counts); err == nil {
		note(&f, "median rated=%.0f total rated=%d (paper: median 3, total 388)", s.Median, a.rated)
	}
	return f
}

// Fig07ByUserCountry: the paper's US-dominated country breakdown.
func (a *Aggregates) Fig07ByUserCountry() Figure {
	f := Figure{ID: "fig07", Title: "Clips played by users from each country", Kind: KindBar,
		Series: []Series{barFromCounter(&a.countryAll)}}
	s := f.Series[0]
	if n := len(s.Labels); n > 0 {
		note(&f, "countries=%d top=%s(%.0f) (paper: 12 countries, US 2100)", n, s.Labels[n-1], s.Y[n-1])
	}
	return f
}

// Fig08ByServerCountry: US servers served the most clips.
func (a *Aggregates) Fig08ByServerCountry() Figure {
	f := Figure{ID: "fig08", Title: "Clips served by RealServers from each country", Kind: KindBar,
		Series: []Series{barFromCounter(&a.serverCountryAll)}}
	s := f.Series[0]
	if n := len(s.Labels); n > 0 {
		note(&f, "server countries=%d top=%s(%.0f) (paper: 8 countries, US 1075)", n, s.Labels[n-1], s.Y[n-1])
	}
	return f
}

// Fig09ByUSState: Massachusetts dominates.
func (a *Aggregates) Fig09ByUSState() Figure {
	f := Figure{ID: "fig09", Title: "Clips played by U.S. users from each state", Kind: KindBar,
		Series: []Series{barFromCounter(&a.usStateAll)}}
	s := f.Series[0]
	if n := len(s.Labels); n > 0 {
		note(&f, "states=%d top=%s(%.0f) (paper: MA dominant)", n, s.Labels[n-1], s.Y[n-1])
	}
	return f
}

// Fig10Unavailable: about 10% of clip requests found the clip unavailable.
func (a *Aggregates) Fig10Unavailable() Figure {
	servers := a.serverAttempts.Keys()
	s := Series{}
	var totalA, totalU int
	for _, srv := range servers {
		att, un := a.serverAttempts.Get(srv), a.serverUnavail.Get(srv)
		s.Labels = append(s.Labels, srv)
		s.Y = append(s.Y, float64(un)/float64(att))
		totalA += att
		totalU += un
	}
	f := Figure{ID: "fig10", Title: "Fraction of unavailable clips per server", Kind: KindBar,
		Series: []Series{s}}
	note(&f, "overall unavailability=%.1f%% (paper: about 10%%)", 100*float64(totalU)/float64(totalA))
	return f
}

// Fig11FrameRateAll: mean ~10 fps; ~25% under 3 fps; ~25% at 15+; <1% at
// full motion.
func (a *Aggregates) Fig11FrameRateAll() Figure {
	f := Figure{ID: "fig11", Title: "CDF of frame rate for all video clips", Kind: KindCDF,
		Series: []Series{distCDFSeries("all clips", a.fpsAll)}}
	if c, err := a.fpsAll.CDF(); err == nil {
		s, _ := a.fpsAll.Summary()
		note(&f, "mean=%.1f fps (paper 10)", s.Mean)
		note(&f, "below 3 fps: %.0f%% (paper ~25%%)", 100*c.FractionBelow(3))
		note(&f, "at least 15 fps: %.0f%% (paper ~25%%)", 100*c.FractionAtLeast(15))
		note(&f, "at least 24 fps: %.1f%% (paper <1%%)", 100*c.FractionAtLeast(24))
	}
	return f
}

// Fig12FrameRateByAccess: modems far worse; DSL/Cable roughly matches
// T1/LAN.
func (a *Aggregates) Fig12FrameRateByAccess() Figure {
	f := Figure{ID: "fig12", Title: "CDF of frame rate by end-host network configuration", Kind: KindCDF,
		Series: groupedCDF(&a.fpsByAccess, AccessOrder)}
	for _, s := range f.Series {
		if len(s.X) == 0 {
			continue
		}
		d := a.fpsByAccess.Get(s.Label)
		c, err := d.CDF()
		if err != nil {
			continue
		}
		note(&f, "%s: below 3 fps %.0f%%, 15+ fps %.0f%%", s.Label, 100*c.FractionBelow(3), 100*c.FractionAtLeast(15))
	}
	note(&f, "paper: modems >50%% below 3 fps and <10%% at 15 fps; broadband ~20%% below 3, ~30%% at 15")
	return f
}

// Fig13BandwidthByAccess: DSL/Cable rarely operates near capacity.
func (a *Aggregates) Fig13BandwidthByAccess() Figure {
	f := Figure{ID: "fig13", Title: "CDF of bandwidth by end-host network configuration", Kind: KindCDF,
		Series: groupedCDF(&a.kbpsByAccess, AccessOrder)}
	if d := a.kbpsByAccess.Get("DSL/Cable"); d != nil {
		if c, err := d.CDF(); err == nil {
			note(&f, "DSL/Cable at 256+ Kbps: %.0f%% of clips (paper: near capacity <10%% of the time)", 100*c.FractionAtLeast(256))
		}
	}
	return f
}

// Fig14FrameRateByServerRegion: server regions differ only slightly.
func (a *Aggregates) Fig14FrameRateByServerRegion() Figure {
	f := Figure{ID: "fig14", Title: "CDF of frame rate by server geographic region", Kind: KindCDF,
		Series: groupedCDF(&a.fpsByServerRegion, ServerRegionOrder)}
	var best, worst string
	bestV, worstV := -1.0, 1e9
	for _, reg := range ServerRegionOrder {
		d := a.fpsByServerRegion.Get(reg)
		if distN(d) == 0 {
			continue
		}
		m := d.Mean()
		note(&f, "%s: mean %.1f fps (n=%d)", reg, m, d.N())
		if m > bestV {
			bestV, best = m, reg
		}
		if m < worstV {
			worstV, worst = m, reg
		}
	}
	note(&f, "best=%s(%.1f) worst=%s(%.1f) (paper: best ~13, worst ~8; all regions similar)", best, bestV, worst, worstV)
	return f
}

// Fig15FrameRateByUserRegion: user region clearly differentiates.
func (a *Aggregates) Fig15FrameRateByUserRegion() Figure {
	f := Figure{ID: "fig15", Title: "CDF of frame rate by user geographic region", Kind: KindCDF,
		Series: groupedCDF(&a.fpsByUserRegion, UserRegionOrder)}
	for _, reg := range UserRegionOrder {
		if d := a.fpsByUserRegion.Get(reg); d != nil {
			if c, err := d.CDF(); err == nil {
				note(&f, "%s: below 3 fps %.0f%%, 15+ %.0f%% (n=%d)", reg, 100*c.FractionBelow(3), 100*c.FractionAtLeast(15), d.N())
			}
		}
	}
	note(&f, "paper: Australia/NZ worst (75%% below 3 fps); Europe best up to 15 fps")
	return f
}

// Fig16ProtocolMix: over half UDP, 44% TCP.
func (a *Aggregates) Fig16ProtocolMix() Figure {
	total := float64(a.played)
	tcp, udp := float64(a.protoPlayed.Get("TCP")), float64(a.protoPlayed.Get("UDP"))
	f := Figure{ID: "fig16", Title: "Fraction of transport protocols observed",
		Kind: KindPie, Series: []Series{{
			Labels: []string{"TCP", "UDP"},
			Y:      []float64{tcp / total, udp / total},
		}}}
	note(&f, "TCP %.0f%% / UDP %.0f%% (paper: TCP 44%%, UDP just over half)",
		100*tcp/total, 100*udp/total)
	return f
}

// Fig17FrameRateByProtocol: distributions nearly identical.
func (a *Aggregates) Fig17FrameRateByProtocol() Figure {
	f := Figure{ID: "fig17", Title: "CDF of frame rate by transport protocol", Kind: KindCDF,
		Series: groupedCDF(&a.fpsByProtocol, ProtocolOrder)}
	for _, proto := range ProtocolOrder {
		if d := a.fpsByProtocol.Get(proto); d != nil {
			if c, err := d.CDF(); err == nil {
				note(&f, "%s: below 3 fps %.0f%% (paper: TCP ~28%%, UDP ~22%%)", proto, 100*c.FractionBelow(3))
			}
		}
	}
	return f
}

// Fig18BandwidthByProtocol: UDP bandwidth comparable to TCP's over a clip.
func (a *Aggregates) Fig18BandwidthByProtocol() Figure {
	f := Figure{ID: "fig18", Title: "CDF of bandwidth by transport protocol", Kind: KindCDF,
		Series: groupedCDF(&a.kbpsByProtocol, ProtocolOrder)}
	for _, proto := range ProtocolOrder {
		d := a.kbpsByProtocol.Get(proto)
		note(&f, "%s: mean %.0f Kbps median %.0f", proto, distMean(d), distQuantile(d, 0.5))
	}
	note(&f, "paper: UDP slightly higher than TCP except at the very low end")
	return f
}

// Fig19FrameRateByPC: only the oldest machines are the bottleneck.
func (a *Aggregates) Fig19FrameRateByPC() Figure {
	f := Figure{ID: "fig19", Title: "CDF of frame rate by user PC class", Kind: KindCDF,
		Series: groupedCDF(&a.fpsByPC, nil)}
	for _, s := range f.Series {
		if d := a.fpsByPC.Get(s.Label); d != nil {
			if c, err := d.CDF(); err == nil {
				note(&f, "%s: above 3 fps %.0f%% (n=%d)", s.Label, 100*c.FractionAtLeast(3), d.N())
			}
		}
	}
	note(&f, "paper: old Pentium MMX machines above 3 fps only 10-20%% of the time; others not the bottleneck")
	return f
}

// Fig20JitterAll: >50% play with imperceptible jitter; ~15% exceed 300 ms.
func (a *Aggregates) Fig20JitterAll() Figure {
	f := Figure{ID: "fig20", Title: "CDF of overall jitter", Kind: KindCDF,
		Series: []Series{distCDFSeries("all clips", a.jitAll)}}
	if c, err := a.jitAll.CDF(); err == nil {
		note(&f, "at or under 50 ms: %.0f%% (paper ~52%%)", 100*c.At(50))
		note(&f, "at or over 300 ms: %.0f%% (paper ~15%%)", 100*c.FractionAtLeast(300))
	}
	return f
}

// Fig21JitterByAccess: modems much worse; DSL slightly beats T1.
func (a *Aggregates) Fig21JitterByAccess() Figure {
	f := Figure{ID: "fig21", Title: "CDF of jitter by network configuration", Kind: KindCDF,
		Series: groupedCDF(&a.jitByAccess, AccessOrder)}
	for _, acc := range AccessOrder {
		if d := a.jitByAccess.Get(acc); d != nil {
			if c, err := d.CDF(); err == nil {
				note(&f, "%s: <=50ms %.0f%%, >=300ms %.0f%%", acc, 100*c.At(50), 100*c.FractionAtLeast(300))
			}
		}
	}
	note(&f, "paper: modem jitter-free ~10%% and unacceptable ~45%%; DSL 15%% vs T1 20%% at 300ms")
	return f
}

// Fig22JitterByServerRegion: Asia worst; others comparable.
func (a *Aggregates) Fig22JitterByServerRegion() Figure {
	f := Figure{ID: "fig22", Title: "CDF of jitter by server geographic region", Kind: KindCDF,
		Series: groupedCDF(&a.jitByServerRegion, ServerRegionOrder)}
	for _, reg := range ServerRegionOrder {
		if d := a.jitByServerRegion.Get(reg); d != nil {
			if c, err := d.CDF(); err == nil {
				note(&f, "%s: imperceptible (<=50ms) %.0f%%", reg, 100*c.At(50))
			}
		}
	}
	note(&f, "paper: Asia worst (~45%% imperceptible vs ~55%% elsewhere)")
	return f
}

// Fig23JitterByUserRegion: Australia/NZ worst again.
func (a *Aggregates) Fig23JitterByUserRegion() Figure {
	f := Figure{ID: "fig23", Title: "CDF of jitter by user geographic region", Kind: KindCDF,
		Series: groupedCDF(&a.jitByUserRegion, UserRegionOrder)}
	for _, reg := range UserRegionOrder {
		if d := a.jitByUserRegion.Get(reg); d != nil {
			if c, err := d.CDF(); err == nil {
				note(&f, "%s: <=50ms %.0f%%, >=300ms %.0f%%", reg, 100*c.At(50), 100*c.FractionAtLeast(300))
			}
		}
	}
	note(&f, "paper: Australia/NZ worst over both limits; Europe and North America comparable")
	return f
}

// Fig24JitterByProtocol: TCP and UDP nearly identical smoothness.
func (a *Aggregates) Fig24JitterByProtocol() Figure {
	f := Figure{ID: "fig24", Title: "CDF of jitter by transport protocol", Kind: KindCDF,
		Series: groupedCDF(&a.jitByProtocol, ProtocolOrder)}
	for _, proto := range ProtocolOrder {
		if d := a.jitByProtocol.Get(proto); d != nil {
			if c, err := d.CDF(); err == nil {
				note(&f, "%s: <=50ms %.0f%%", proto, 100*c.At(50))
			}
		}
	}
	note(&f, "paper: both protocols provide nearly identical smoothness")
	return f
}

// Fig25JitterByBandwidth: strong correlation between bandwidth and jitter.
func (a *Aggregates) Fig25JitterByBandwidth() Figure {
	f := Figure{ID: "fig25", Title: "CDF of jitter by observed bandwidth", Kind: KindCDF,
		Series: groupedCDF(&a.jitByBand, BandwidthBands)}
	for _, band := range BandwidthBands {
		if d := a.jitByBand.Get(band); d != nil {
			if c, err := d.CDF(); err == nil {
				note(&f, "%s: jitter-free %.0f%%, acceptable(<300ms) %.0f%% (n=%d)", band, 100*c.At(50), 100*c.FractionBelow(300), d.N())
			}
		}
	}
	note(&f, "paper: low bandwidth ~10%% jitter free / 20%% acceptable; high bandwidth ~80%% / ~95%%")
	return f
}

// Fig26QualityAll: ratings look uniform with mean ~5.
func (a *Aggregates) Fig26QualityAll() Figure {
	f := Figure{ID: "fig26", Title: "CDF of overall quality rating", Kind: KindCDF,
		Series: []Series{distCDFSeries("rated clips", a.ratingAll)}}
	if s, err := a.ratingAll.Summary(); err == nil {
		note(&f, "n=%d mean=%.1f (paper: ~388 ratings, mean ~5, near-uniform distribution)", s.N, s.Mean)
	}
	return f
}

// Fig27QualityByAccess: modem quality about half of DSL; DSL beats T1.
func (a *Aggregates) Fig27QualityByAccess() Figure {
	f := Figure{ID: "fig27", Title: "CDF of quality by network configuration", Kind: KindCDF,
		Series: groupedCDF(&a.ratingByAccess, AccessOrder)}
	for _, acc := range AccessOrder {
		if d := a.ratingByAccess.Get(acc); distN(d) > 0 {
			note(&f, "%s: mean rating %.1f (n=%d)", acc, d.Mean(), d.N())
		}
	}
	note(&f, "paper: modem ratings about half of DSL/Cable; DSL slightly above LAN/T1")
	return f
}

// Fig28QualityVsBandwidth: weak correlation; no low ratings at high
// bandwidth.
func (a *Aggregates) Fig28QualityVsBandwidth() Figure {
	xs, ys := a.ratedKbps, a.ratedRating
	f := Figure{ID: "fig28", Title: "Quality rating vs network bandwidth", Kind: KindScatter,
		Series: []Series{{Label: "clips", X: xs, Y: ys}}}
	centers, means := stats.ScatterBin(xs, ys, 8)
	f.Series = append(f.Series, Series{Label: "binned mean", X: centers, Y: means})
	var r float64
	if a.ratedPairsDropped > 0 {
		// The retained point cloud is only a prefix sample; the streamed
		// co-moments cover every pair.
		r = a.ratedCorr.R()
	} else {
		r = stats.Pearson(xs, ys)
	}
	note(&f, "pearson r=%.2f (paper: no strong visual correlation, slight upward trend)", r)
	note(&f, "ratings <3 at >250 Kbps: %d (paper: notable lack of low ratings at high bandwidth)", a.lowRatedHighBW)
	if a.ratedPairsDropped > 0 {
		note(&f, "scatter shows first %d of %d rated clips (correlation covers all)", len(xs), a.rated)
	}
	return f
}
