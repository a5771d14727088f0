// Streaming, mergeable accumulators: the aggregation layer that lets a
// population-scale study compute every figure in one pass over the record
// stream instead of retaining the records themselves.
//
// Three primitives cover the analysis:
//
//   - Welford: single-pass mean/variance with min/max, merged with the
//     parallel-variance formulas of Chan et al.
//   - Sketch: a mergeable quantile sketch with an exact small-sample path.
//     Up to ExactCap values it stores the raw sample, so small (seed-size)
//     studies produce bit-exact quantiles and CDFs; past the cap it folds
//     into fixed-resolution logarithmic bins (DDSketch-style) whose
//     quantiles carry a bounded relative error of Alpha.
//   - Corr: single-pass Pearson correlation co-moments.
//
// Dist bundles Welford + Sketch per metric and Grouped keys Dists by a
// string label (access class, country, protocol). Sketch quantiles are
// merge-order-invariant at query time (values are sorted or binned before
// reading); moment accumulators are order-invariant only up to floating-
// point rounding, and Dist's exact path keeps samples in merge order — so
// callers that need byte-stable output must merge partials in a fixed
// order, the way core.RunCampaignAggregates merges in scenario input
// order.
package stats

import (
	"math"
	"sort"
)

// DefaultSketchAlpha is the relative accuracy of the binned sketch path:
// every quantile estimate is within 0.5% of a sample value at that rank,
// comfortably inside the study's 1% acceptance bound.
const DefaultSketchAlpha = 0.005

// DefaultExactCap is how many raw samples a Sketch retains before folding
// into bins. Seed-size studies (a few thousand clips) stay entirely on the
// exact path, so the streaming refactor is output-preserving there.
const DefaultExactCap = 4096

// Welford accumulates count, mean, variance, min and max in one pass.
// The zero value is an empty accumulator.
type Welford struct {
	n        uint64
	mean, m2 float64
	min, max float64
}

// Add folds one sample in.
func (w *Welford) Add(x float64) {
	if w.n == 0 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Merge folds another accumulator in; o is unchanged.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.mean += d * float64(o.n) / float64(n)
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.n = n
}

// N returns the sample count.
func (w Welford) N() int { return int(w.n) }

// Mean returns the running mean (0 when empty).
func (w Welford) Mean() float64 { return w.mean }

// Variance returns the population variance (0 when empty).
func (w Welford) Variance() float64 {
	if w.n == 0 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StdDev returns the population standard deviation.
func (w Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Min returns the smallest sample (0 when empty).
func (w Welford) Min() float64 { return w.min }

// Max returns the largest sample (0 when empty).
func (w Welford) Max() float64 { return w.max }

// Corr accumulates Pearson correlation co-moments over a paired sample.
// The zero value is an empty accumulator.
type Corr struct {
	n             uint64
	mx, my        float64
	sxx, syy, sxy float64
}

// Add folds one (x, y) pair in.
func (c *Corr) Add(x, y float64) {
	c.n++
	n := float64(c.n)
	dx := x - c.mx
	dy := y - c.my
	c.mx += dx / n
	c.my += dy / n
	// Use the updated mean for one side (standard single-pass co-moment).
	c.sxx += dx * (x - c.mx)
	c.syy += dy * (y - c.my)
	c.sxy += dx * (y - c.my)
}

// Merge folds another accumulator in; o is unchanged.
func (c *Corr) Merge(o Corr) {
	if o.n == 0 {
		return
	}
	if c.n == 0 {
		*c = o
		return
	}
	n := c.n + o.n
	dx := o.mx - c.mx
	dy := o.my - c.my
	f := float64(c.n) * float64(o.n) / float64(n)
	c.sxx += o.sxx + dx*dx*f
	c.syy += o.syy + dy*dy*f
	c.sxy += o.sxy + dx*dy*f
	c.mx += dx * float64(o.n) / float64(n)
	c.my += dy * float64(o.n) / float64(n)
	c.n = n
}

// N returns the pair count.
func (c Corr) N() int { return int(c.n) }

// R returns the Pearson correlation coefficient, 0 for degenerate input.
func (c Corr) R() float64 {
	if c.n == 0 || c.sxx == 0 || c.syy == 0 {
		return 0
	}
	return c.sxy / math.Sqrt(c.sxx*c.syy)
}

// Sketch is a mergeable quantile sketch. Until ExactCap samples it keeps the
// raw values (exact quantiles, bit-stable CDFs); beyond that it folds into
// fixed-resolution logarithmic bins with relative accuracy Alpha. Merging
// two sketches is order-invariant: the merged quantiles do not depend on
// which side was merged into which, or in what order partials arrive.
//
// The zero value is NOT usable; construct with NewSketch.
type Sketch struct {
	alpha    float64
	gamma    float64
	invLgG   float64 // 1 / ln(gamma)
	exactCap int

	exact  []float64 // insertion order; nil once promoted to bins
	binned bool      // true once the sample has folded into bins
	pos    map[int]uint64
	neg    map[int]uint64
	zero   uint64

	n        uint64
	min, max float64
}

// NewSketch returns an empty sketch with the default accuracy
// (DefaultSketchAlpha) and exact-path capacity (DefaultExactCap).
func NewSketch() *Sketch {
	return NewSketchAccuracy(DefaultSketchAlpha, DefaultExactCap)
}

// NewSketchAccuracy returns an empty sketch with relative accuracy alpha
// (0 < alpha < 1) and the given exact-path capacity. exactCap 0 disables
// the exact path entirely (every value goes straight to bins).
func NewSketchAccuracy(alpha float64, exactCap int) *Sketch {
	if alpha <= 0 || alpha >= 1 {
		alpha = DefaultSketchAlpha
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Sketch{
		alpha:    alpha,
		gamma:    gamma,
		invLgG:   1 / math.Log(gamma),
		exactCap: exactCap,
	}
}

// N returns the sample count.
func (s *Sketch) N() int { return int(s.n) }

// Min returns the smallest sample (0 when empty).
func (s *Sketch) Min() float64 { return s.min }

// Max returns the largest sample (0 when empty).
func (s *Sketch) Max() float64 { return s.max }

// Values returns the raw sample in insertion order while the sketch is on
// the exact path, or nil, false once it has folded into bins. The slice is
// the sketch's backing store; callers must not modify it.
func (s *Sketch) Values() ([]float64, bool) {
	if s.binned {
		return nil, false
	}
	return s.exact, true
}

// Add folds one sample in.
func (s *Sketch) Add(v float64) {
	if s.n == 0 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	s.n++
	if !s.binned {
		if len(s.exact) < s.exactCap {
			s.exact = append(s.exact, v)
			return
		}
		s.promote()
	}
	s.binAdd(v, 1)
}

// promote folds the exact sample into bins.
func (s *Sketch) promote() {
	vals := s.exact
	s.exact = nil
	s.binned = true
	for _, v := range vals {
		s.binAdd(v, 1)
	}
}

// key maps a positive value to its logarithmic bin index: bin i covers
// (gamma^(i-1), gamma^i].
func (s *Sketch) key(v float64) int {
	return int(math.Ceil(math.Log(v) * s.invLgG))
}

// binValue is the representative value of positive bin i: the midpoint
// estimate 2*gamma^i/(gamma+1), whose relative error to any value in the
// bin is at most alpha.
func (s *Sketch) binValue(i int) float64 {
	return 2 * math.Pow(s.gamma, float64(i)) / (s.gamma + 1)
}

func (s *Sketch) binAdd(v float64, count uint64) {
	switch {
	case v > 0:
		if s.pos == nil {
			s.pos = make(map[int]uint64)
		}
		s.pos[s.key(v)] += count
	case v < 0:
		if s.neg == nil {
			s.neg = make(map[int]uint64)
		}
		s.neg[s.key(-v)] += count
	default:
		s.zero += count
	}
}

// Merge folds o into s; o is unchanged. Sketches constructed with different
// accuracies must not be merged (the bins would not line up); Merge panics
// on an alpha mismatch rather than silently corrupting quantiles.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil || o.n == 0 {
		return
	}
	if o.alpha != s.alpha {
		panic("stats: merging sketches with different accuracies")
	}
	if s.n == 0 {
		s.min, s.max = o.min, o.max
	} else {
		if o.min < s.min {
			s.min = o.min
		}
		if o.max > s.max {
			s.max = o.max
		}
	}
	s.n += o.n
	if !s.binned && !o.binned && len(s.exact)+len(o.exact) <= s.exactCap {
		s.exact = append(s.exact, o.exact...)
		return
	}
	if !s.binned {
		s.promote()
	}
	if !o.binned {
		for _, v := range o.exact {
			s.binAdd(v, 1)
		}
		return
	}
	for k, c := range o.pos {
		if s.pos == nil {
			s.pos = make(map[int]uint64)
		}
		s.pos[k] += c
	}
	for k, c := range o.neg {
		if s.neg == nil {
			s.neg = make(map[int]uint64)
		}
		s.neg[k] += c
	}
	s.zero += o.zero
}

// bin is one support point of the folded distribution.
type bin struct {
	v float64
	c uint64
}

// bins returns the folded distribution's support points in ascending value
// order, with representative values clamped into [min, max].
func (s *Sketch) bins() []bin {
	out := make([]bin, 0, len(s.pos)+len(s.neg)+1)
	negKeys := make([]int, 0, len(s.neg))
	for k := range s.neg {
		negKeys = append(negKeys, k)
	}
	// Larger |v| first: descending value order for negatives is descending
	// magnitude reversed — sort keys descending so values ascend.
	sort.Sort(sort.Reverse(sort.IntSlice(negKeys)))
	for _, k := range negKeys {
		out = append(out, bin{v: -s.binValue(k), c: s.neg[k]})
	}
	if s.zero > 0 {
		out = append(out, bin{v: 0, c: s.zero})
	}
	posKeys := make([]int, 0, len(s.pos))
	for k := range s.pos {
		posKeys = append(posKeys, k)
	}
	sort.Ints(posKeys)
	for _, k := range posKeys {
		out = append(out, bin{v: s.binValue(k), c: s.pos[k]})
	}
	// Clamp representatives into the observed range and merge duplicates the
	// clamping may create at the edges.
	merged := out[:0]
	for _, b := range out {
		if b.v < s.min {
			b.v = s.min
		}
		if b.v > s.max {
			b.v = s.max
		}
		if len(merged) > 0 && merged[len(merged)-1].v == b.v {
			merged[len(merged)-1].c += b.c
		} else {
			merged = append(merged, b)
		}
	}
	return merged
}

// Quantile returns the q-th quantile (0 <= q <= 1). On the exact path it
// matches stats.Quantile over the raw sample; on the binned path the result
// is within Alpha (relative) of a sample value at that rank.
func (s *Sketch) Quantile(q float64) float64 {
	if s.n == 0 {
		return 0
	}
	if !s.binned {
		return Quantile(s.exact, q)
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	rank := q * float64(s.n-1)
	var cum uint64
	for _, b := range s.bins() {
		cum += b.c
		if float64(cum-1) >= rank {
			return b.v
		}
	}
	return s.max
}

// CDF returns the empirical CDF. On the exact path it is identical to
// NewCDF over the raw sample; on the binned path each bin contributes one
// support point at its representative value.
func (s *Sketch) CDF() (CDF, error) {
	if s.n == 0 {
		return CDF{}, ErrEmpty
	}
	if !s.binned {
		return NewCDF(s.exact)
	}
	var cdf CDF
	var cum uint64
	n := float64(s.n)
	for _, b := range s.bins() {
		cum += b.c
		cdf.X = append(cdf.X, b.v)
		cdf.F = append(cdf.F, float64(cum)/n)
	}
	return cdf, nil
}

// Dist is the per-metric streaming accumulator the figures build on: a
// Welford for moments plus a Sketch for quantiles and CDFs. The zero value
// is NOT usable; construct with NewDist.
type Dist struct {
	W Welford
	S *Sketch
}

// NewDist returns an empty distribution accumulator with default sketch
// parameters.
func NewDist() *Dist { return &Dist{S: NewSketch()} }

// Add folds one sample in.
func (d *Dist) Add(v float64) {
	d.W.Add(v)
	d.S.Add(v)
}

// Merge folds o in; o is unchanged.
func (d *Dist) Merge(o *Dist) {
	if o == nil {
		return
	}
	d.W.Merge(o.W)
	d.S.Merge(o.S)
}

// N returns the sample count.
func (d *Dist) N() int { return d.W.N() }

// Exact returns the raw sample (insertion order) while the distribution is
// small enough for the exact path.
func (d *Dist) Exact() ([]float64, bool) { return d.S.Values() }

// Mean returns the mean. On the exact path it reproduces stats.Mean over
// the raw sample bit-for-bit (same summation order); otherwise the Welford
// mean.
func (d *Dist) Mean() float64 {
	if vals, ok := d.Exact(); ok {
		return Mean(vals)
	}
	return d.W.Mean()
}

// Quantile returns the q-th quantile (exact on the small-sample path).
func (d *Dist) Quantile(q float64) float64 { return d.S.Quantile(q) }

// CDF returns the empirical CDF (exact on the small-sample path).
func (d *Dist) CDF() (CDF, error) { return d.S.CDF() }

// Summary returns descriptive statistics. On the exact path it reproduces
// stats.Summarize over the raw sample bit-for-bit; on the binned path the
// moments come from the Welford accumulator and the median from the sketch.
func (d *Dist) Summary() (Summary, error) {
	if d.N() == 0 {
		return Summary{}, ErrEmpty
	}
	if vals, ok := d.Exact(); ok {
		return Summarize(vals)
	}
	return Summary{
		N:      d.N(),
		Mean:   d.W.Mean(),
		Median: d.S.Quantile(0.5),
		StdDev: d.W.StdDev(),
		Min:    d.W.Min(),
		Max:    d.W.Max(),
	}, nil
}

// Grouped keys Dists by a string label: the access-class / country /
// protocol splits of the figures. The zero value is ready to use.
type Grouped struct {
	m map[string]*Dist
}

// Add folds v into key's distribution.
func (g *Grouped) Add(key string, v float64) {
	if g.m == nil {
		g.m = make(map[string]*Dist)
	}
	d := g.m[key]
	if d == nil {
		d = NewDist()
		g.m[key] = d
	}
	d.Add(v)
}

// Get returns key's distribution, or nil when the key was never added.
func (g *Grouped) Get(key string) *Dist {
	if g.m == nil {
		return nil
	}
	return g.m[key]
}

// Keys returns the group labels in sorted order, so iteration over a merged
// aggregate is deterministic.
func (g *Grouped) Keys() []string {
	keys := make([]string, 0, len(g.m))
	for k := range g.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Len returns the number of groups.
func (g *Grouped) Len() int { return len(g.m) }

// Merge folds o in; o is unchanged.
func (g *Grouped) Merge(o *Grouped) {
	if o == nil {
		return
	}
	for k, od := range o.m {
		if g.m == nil {
			g.m = make(map[string]*Dist)
		}
		d := g.m[k]
		if d == nil {
			d = NewDist()
			g.m[k] = d
		}
		d.Merge(od)
	}
}

// Counter is a mergeable string-keyed tally (clips per country, attempts
// per server). The zero value is ready to use.
type Counter struct {
	m map[string]int
}

// Add increments key by n.
func (c *Counter) Add(key string, n int) {
	if c.m == nil {
		c.m = make(map[string]int)
	}
	c.m[key] += n
}

// Get returns key's count (0 when absent).
func (c *Counter) Get(key string) int { return c.m[key] }

// Keys returns the labels in sorted order.
func (c *Counter) Keys() []string {
	keys := make([]string, 0, len(c.m))
	for k := range c.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Len returns the number of distinct keys.
func (c *Counter) Len() int { return len(c.m) }

// Total returns the sum over all keys.
func (c *Counter) Total() int {
	var t int
	for _, v := range c.m {
		t += v
	}
	return t
}

// Merge folds o in; o is unchanged.
func (c *Counter) Merge(o *Counter) {
	if o == nil {
		return
	}
	for k, v := range o.m {
		c.Add(k, v)
	}
}
