package figures

import (
	"math"
	"sort"
)

// This file is the workload breakdown: the open-loop analogs of the
// robustness rows. Every record carries the clip's virtual-time span
// (StartSec/EndSec), but only records from open-loop runs carry a
// server-selection policy label (Record.Policy); panel records carry none,
// so a classic study produces an empty breakdown and the golden figures are
// untouched.

// WorkloadRow is one selection policy's summary.
type WorkloadRow struct {
	// Policy is the selection policy label ("pinned", "rtt", ...).
	Policy string
	// Played and Failed count clips fetched under the policy.
	Played, Failed int
	// MeanStartupSec is the average initial-buffering (startup) delay.
	MeanStartupSec float64
	// MeanRebuffers is the average mid-playout stall count.
	MeanRebuffers float64
	// LoadBalance is the coefficient of variation (stddev/mean) of the
	// per-server play counts over every mirror observed in the aggregate:
	// 0 is a perfectly even spread, higher is more lopsided. Pinned
	// selection concentrates load on the popular clips' home sites and
	// scores high; least-loaded selection should score near 0.
	LoadBalance float64
	// Servers is how many distinct servers the policy actually used.
	Servers int
}

// Workload returns the per-selection-policy breakdown, sorted by policy
// name. Empty for classic panel runs.
func (a *Aggregates) Workload() []WorkloadRow {
	keys := a.playedByPolicy.Keys()
	for _, k := range a.failedByPolicy.Keys() {
		if a.playedByPolicy.Get(k) == 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)

	// The mirror universe: every server the aggregate saw at all —
	// serverAttempts counts each record regardless of policy, so merged
	// sweep aggregates (and churn sweeps with a panel control arm) score
	// every policy over the same server set and "never sent anything to
	// 6 of 10 mirrors" shows up as imbalance rather than vanishing. An
	// aggregate whose records only ever touched one server degenerates
	// to CV 0 — read the Servers column alongside.
	servers := a.serverAttempts.Keys()

	out := make([]WorkloadRow, 0, len(keys))
	for _, pol := range keys {
		row := WorkloadRow{
			Policy: pol,
			Played: a.playedByPolicy.Get(pol),
			Failed: a.failedByPolicy.Get(pol),
		}
		if d := a.startupByPolicy.Get(pol); d != nil {
			row.MeanStartupSec = d.Mean()
		}
		if d := a.rebufByPolicy.Get(pol); d != nil {
			row.MeanRebuffers = d.Mean()
		}
		var counts []float64
		for _, srv := range servers {
			c := a.policyServer.Get(pol + "|" + srv)
			counts = append(counts, float64(c))
			if c > 0 {
				row.Servers++
			}
		}
		row.LoadBalance = coefficientOfVariation(counts)
		out = append(out, row)
	}
	return out
}

// Concurrency returns the concurrent-clip time series: minute offsets
// (virtual time) and the number of clips in flight during each. Minutes
// where the level does not change are omitted — the series is a step
// function. Empty when no record carried a time span (legacy traces).
func (a *Aggregates) Concurrency() (minutes []int, level []int) {
	if len(a.concurDelta) == 0 {
		return nil, nil
	}
	ms := make([]int, 0, len(a.concurDelta))
	for m := range a.concurDelta {
		ms = append(ms, m)
	}
	sort.Ints(ms)
	running := 0
	for _, m := range ms {
		running += a.concurDelta[m]
		minutes = append(minutes, m)
		level = append(level, running)
	}
	return minutes, level
}

// PeakConcurrency returns the maximum concurrent-clip level and the minute
// it was first reached (-1 when the series is empty).
func (a *Aggregates) PeakConcurrency() (peak, atMinute int) {
	minutes, level := a.Concurrency()
	atMinute = -1
	for i, l := range level {
		if l > peak {
			peak, atMinute = l, minutes[i]
		}
	}
	return peak, atMinute
}

// coefficientOfVariation is stddev/mean (population), 0 for empty or
// all-zero inputs.
func coefficientOfVariation(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(xs))) / mean
}
