package figures

import (
	"fmt"

	"realtracer/internal/snap"
	"realtracer/internal/trace"
)

func init() { trace.RegisterSnapSink(func() trace.SnapSink { return NewAggregates() }) }

// SnapSection implements trace.SnapSink.
func (a *Aggregates) SnapSection() string { return "aggregates" }

// Sync implements trace.SnapSink: a world streaming into aggregates
// checkpoints them in place of the records it never kept. The walk is
// composed from the stats accumulators' own; decoding overwrites the
// receiver.
func (a *Aggregates) Sync(c *snap.Codec) {
	for _, n := range []*int{&a.total, &a.played, &a.rated, &a.unavailable, &a.failed,
		&a.ratedPairsDropped, &a.lowRatedHighBW} {
		c.Int(n)
	}
	if c.Reading() {
		a.perUser, a.concurDelta = make(map[string]*userTally), nil
	}
	snap.Map(c, &a.perUser, (*snap.Codec).Str, func(c *snap.Codec, t **userTally) {
		if c.Reading() {
			*t = &userTally{}
		}
		c.Int(&(*t).plays)
		c.Int(&(*t).rated)
	})
	for _, t := range a.counters() {
		t.Sync(c)
	}
	for _, d := range a.dists() {
		d.Sync(c)
	}
	for _, g := range a.groups() {
		g.Sync(c)
	}
	snap.Slice(c, &a.ratedKbps, (*snap.Codec).F64)
	snap.Slice(c, &a.ratedRating, (*snap.Codec).F64)
	if c.Err() == nil && len(a.ratedKbps) != len(a.ratedRating) {
		c.Fail(fmt.Errorf("figures: snapshot pairs %d bandwidths with %d ratings", len(a.ratedKbps), len(a.ratedRating)))
	}
	a.ratedCorr.Sync(c)
	snap.Map(c, &a.concurDelta, (*snap.Codec).Int, (*snap.Codec).Int)
}
