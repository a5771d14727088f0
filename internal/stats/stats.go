// Package stats implements the small statistical toolkit the study analysis
// needs: empirical CDFs, histograms, quantiles, summary statistics, Pearson
// correlation and scatter binning.
//
// Everything operates on plain float64 slices and never mutates its input.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by operations that need at least one sample.
var ErrEmpty = errors.New("stats: empty sample set")

// Summary holds the usual scalar descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Median float64
	StdDev float64 // population standard deviation
	Min    float64
	Max    float64
}

// Summarize computes descriptive statistics for xs. It returns ErrEmpty when
// xs has no elements.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.StdDev = math.Sqrt(ss / float64(len(xs)))
	// The old form called Quantile, which sorts a fresh O(n log n) copy
	// just to read one rank. Selecting the median order statistics is O(n)
	// and returns the same interpolated value bit-for-bit (the benchmark
	// pair in stats_bench_test.go records the win).
	s.Median = medianOf(xs)
	return s, nil
}

// medianOf returns the interpolated median of xs (len > 0) by quickselect
// instead of a full sort. It matches Quantile(xs, 0.5) exactly.
func medianOf(xs []float64) float64 {
	buf := append([]float64(nil), xs...)
	pos := 0.5 * float64(len(buf)-1)
	lo := int(pos)
	v := selectKth(buf, lo)
	frac := pos - float64(lo)
	if frac == 0 {
		return v
	}
	// After selection everything right of lo is >= buf[lo]; the next order
	// statistic is the minimum of that suffix.
	hi := buf[lo+1]
	for _, x := range buf[lo+2:] {
		if x < hi {
			hi = x
		}
	}
	return v*(1-frac) + hi*frac
}

// selectKth partially orders buf in place so buf[k] holds its sorted-order
// value, with no larger element before it and no smaller element after it.
// Iterative Hoare quickselect with median-of-three pivoting: O(n) expected.
func selectKth(buf []float64, k int) float64 {
	lo, hi := 0, len(buf)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if buf[mid] < buf[lo] {
			buf[mid], buf[lo] = buf[lo], buf[mid]
		}
		if buf[hi] < buf[lo] {
			buf[hi], buf[lo] = buf[lo], buf[hi]
		}
		if buf[hi] < buf[mid] {
			buf[hi], buf[mid] = buf[mid], buf[hi]
		}
		pivot := buf[mid]
		i, j := lo, hi
		for i <= j {
			for buf[i] < pivot {
				i++
			}
			for buf[j] > pivot {
				j--
			}
			if i <= j {
				buf[i], buf[j] = buf[j], buf[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return buf[k]
		}
	}
	return buf[k]
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs, or 0 when xs has
// fewer than one element.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It returns 0 for an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// CDF is an empirical cumulative distribution function over a sample.
// X holds the sorted distinct-or-repeated sample values; the fraction of the
// sample <= X[i] is F[i]. F is non-decreasing and ends at 1.
type CDF struct {
	X []float64
	F []float64
}

// NewCDF builds the empirical CDF of xs. It returns an error for an empty
// sample.
func NewCDF(xs []float64) (CDF, error) {
	if len(xs) == 0 {
		return CDF{}, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	var cdf CDF
	for i := 0; i < len(sorted); {
		j := i + 1 // not i: a NaN equals nothing, itself included
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		cdf.X = append(cdf.X, sorted[i])
		cdf.F = append(cdf.F, float64(j)/n)
		i = j
	}
	return cdf, nil
}

// At returns F(x): the fraction of the sample <= x. For x below the sample
// minimum it returns 0.
func (c CDF) At(x float64) float64 {
	// First index with X[i] > x; the answer is F of the previous index.
	i := sort.SearchFloat64s(c.X, math.Nextafter(x, math.Inf(1)))
	if i == 0 {
		return 0
	}
	return c.F[i-1]
}

// FractionBelow returns the fraction of the sample strictly less than x.
func (c CDF) FractionBelow(x float64) float64 {
	i := sort.SearchFloat64s(c.X, x)
	if i == 0 {
		return 0
	}
	return c.F[i-1]
}

// FractionAtLeast returns the fraction of the sample >= x.
func (c CDF) FractionAtLeast(x float64) float64 { return 1 - c.FractionBelow(x) }

// Quantile returns the smallest sample value v with F(v) >= q.
func (c CDF) Quantile(q float64) float64 {
	if len(c.X) == 0 {
		return 0
	}
	for i, f := range c.F {
		if f >= q {
			return c.X[i]
		}
	}
	return c.X[len(c.X)-1]
}

// Points samples the CDF at n evenly spaced x positions spanning [X[0],
// X[last]], producing a plottable series. n must be >= 2.
func (c CDF) Points(n int) (xs, fs []float64) {
	if len(c.X) == 0 || n < 2 {
		return nil, nil
	}
	lo, hi := c.X[0], c.X[len(c.X)-1]
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		xs = append(xs, x)
		fs = append(fs, c.At(x))
	}
	return xs, fs
}

// Pearson returns the Pearson product-moment correlation coefficient of the
// paired samples xs, ys. It returns 0 when the inputs are degenerate (empty,
// mismatched length, or zero variance).
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) == 0 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// ScatterBin groups the paired sample (xs, ys) into nbins equal-width x bins
// and returns the mean y per non-empty bin, useful for eyeballing trends in a
// scatter plot (Fig. 28).
func ScatterBin(xs, ys []float64, nbins int) (centers, meanY []float64) {
	if len(xs) != len(ys) || len(xs) == 0 || nbins <= 0 {
		return nil, nil
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if hi == lo {
		return []float64{lo}, []float64{Mean(ys)}
	}
	width := (hi - lo) / float64(nbins)
	sums := make([]float64, nbins)
	counts := make([]int, nbins)
	for i := range xs {
		b := max(0, min(int((xs[i]-lo)/width), nbins-1)) // NaN and ±Inf land on an edge
		sums[b] += ys[i]
		counts[b]++
	}
	for b := 0; b < nbins; b++ {
		if counts[b] == 0 {
			continue
		}
		centers = append(centers, lo+width*(float64(b)+0.5))
		meanY = append(meanY, sums[b]/float64(counts[b]))
	}
	return centers, meanY
}
