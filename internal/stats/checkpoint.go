package stats

import (
	"fmt"

	"realtracer/internal/snap"
)

// Binary round-trip walks for the streaming accumulators, so partial figure
// aggregates can ride along in a world checkpoint and merge identically
// after a resume. Every walk is field-exact: floats travel as bit patterns,
// the Sketch's exact path keeps its insertion order, and map contents walk
// in sorted key order so the bytes of a given accumulator state are
// deterministic. Decoding overwrites the receiver.

// Sync walks the accumulator's state.
func (w *Welford) Sync(c *snap.Codec) {
	c.Tag("welford")
	c.U64(&w.n)
	c.F64(&w.mean)
	c.F64(&w.m2)
	c.F64(&w.min)
	c.F64(&w.max)
}

// syncBins walks one sign's bin map.
func syncBins(c *snap.Codec, m *map[int]uint64) {
	snap.Map(c, m, (*snap.Codec).Int, (*snap.Codec).U64)
}

// Sync walks the sketch's state: construction parameters (the constants
// derived from alpha travel too — field-exact, like everything here) plus
// either the raw exact-path sample (in insertion order) or the bin maps.
func (s *Sketch) Sync(c *snap.Codec) {
	c.Tag("sketch")
	if c.Reading() {
		*s = Sketch{}
	}
	c.F64(&s.alpha)
	c.F64(&s.gamma)
	c.F64(&s.invLgG)
	c.Int(&s.exactCap)
	c.Bool(&s.binned)
	if s.binned {
		syncBins(c, &s.pos)
		syncBins(c, &s.neg)
	} else {
		snap.Slice(c, &s.exact, (*snap.Codec).F64)
	}
	c.U64(&s.zero)
	c.U64(&s.n)
	c.F64(&s.min)
	c.F64(&s.max)
	if c.Reading() && c.Err() == nil && !s.binned && len(s.exact) != int(s.n) {
		c.Fail(fmt.Errorf("stats: sketch exact path holds %d values for n=%d", len(s.exact), s.n))
	}
}

// Sync walks the distribution's paired accumulators.
func (d *Dist) Sync(c *snap.Codec) {
	c.Tag("dist")
	d.W.Sync(c)
	if c.Reading() {
		d.S = &Sketch{}
	}
	d.S.Sync(c)
}

// Sync walks the grouped distributions.
func (g *Grouped) Sync(c *snap.Codec) {
	c.Tag("grouped")
	if c.Reading() {
		g.m = nil
	}
	snap.Map(c, &g.m, (*snap.Codec).Str, func(c *snap.Codec, d **Dist) {
		if c.Reading() {
			*d = &Dist{}
		}
		(*d).Sync(c)
	})
}

// Sync walks the tally.
func (t *Counter) Sync(c *snap.Codec) {
	c.Tag("counter")
	if c.Reading() {
		t.m = nil
	}
	snap.Map(c, &t.m, (*snap.Codec).Str, (*snap.Codec).Int)
}

// Sync walks the co-moment accumulator's state.
func (r *Corr) Sync(c *snap.Codec) {
	c.Tag("corr")
	c.U64(&r.n)
	c.F64(&r.mx)
	c.F64(&r.my)
	c.F64(&r.sxx)
	c.F64(&r.syy)
	c.F64(&r.sxy)
}
