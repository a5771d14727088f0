package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestWelfordMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 500)
	var w Welford
	for i := range xs {
		xs[i] = rng.NormFloat64()*40 + 100
		w.Add(xs[i])
	}
	if w.N() != len(xs) {
		t.Fatalf("n=%d want %d", w.N(), len(xs))
	}
	if !almost(w.Mean(), Mean(xs), 1e-9) {
		t.Fatalf("mean %v vs %v", w.Mean(), Mean(xs))
	}
	if !almost(w.StdDev(), StdDev(xs), 1e-9) {
		t.Fatalf("stddev %v vs %v", w.StdDev(), StdDev(xs))
	}
	s, _ := Summarize(xs)
	if w.Min() != s.Min || w.Max() != s.Max {
		t.Fatalf("min/max %v/%v vs %v/%v", w.Min(), w.Max(), s.Min, s.Max)
	}
}

// Property: merging Welford partials equals one accumulator over the
// concatenation, regardless of the split point.
func TestPropertyWelfordMerge(t *testing.T) {
	f := func(seed int64, cut uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 200)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 50
		}
		k := int(cut) % len(xs)
		var whole, a, b Welford
		for _, x := range xs {
			whole.Add(x)
		}
		for _, x := range xs[:k] {
			a.Add(x)
		}
		for _, x := range xs[k:] {
			b.Add(x)
		}
		a.Merge(b)
		return a.N() == whole.N() &&
			almost(a.Mean(), whole.Mean(), 1e-9) &&
			almost(a.StdDev(), whole.StdDev(), 1e-9) &&
			a.Min() == whole.Min() && a.Max() == whole.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCorrMatchesPearson(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 300)
	ys := make([]float64, 300)
	var c Corr
	for i := range xs {
		xs[i] = rng.Float64() * 400
		ys[i] = 0.01*xs[i] + rng.NormFloat64()*2
		c.Add(xs[i], ys[i])
	}
	if !almost(c.R(), Pearson(xs, ys), 1e-9) {
		t.Fatalf("corr %v vs pearson %v", c.R(), Pearson(xs, ys))
	}
	// Split-merge equals whole.
	var a, b Corr
	for i := range xs {
		if i < 120 {
			a.Add(xs[i], ys[i])
		} else {
			b.Add(xs[i], ys[i])
		}
	}
	a.Merge(b)
	if !almost(a.R(), c.R(), 1e-9) {
		t.Fatalf("merged corr %v vs whole %v", a.R(), c.R())
	}
}

// exact reports whether s still holds its raw sample.
func exact(s *Sketch) bool {
	_, ok := s.Values()
	return ok
}

// TestSketchExactPathIsExact: below the cap the sketch IS the sample, so
// quantiles and CDFs match the batch implementations bit-for-bit.
func TestSketchExactPathIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewSketch()
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.Float64() * 800
		s.Add(xs[i])
	}
	if !exact(s) {
		t.Fatal("1000 samples should stay on the exact path")
	}
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.9, 0.99, 1} {
		if s.Quantile(q) != Quantile(xs, q) {
			t.Fatalf("q=%v: %v vs exact %v", q, s.Quantile(q), Quantile(xs, q))
		}
	}
	got, err := s.CDF()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := NewCDF(xs)
	if len(got.X) != len(want.X) {
		t.Fatalf("CDF support %d vs %d", len(got.X), len(want.X))
	}
	for i := range got.X {
		if got.X[i] != want.X[i] || got.F[i] != want.F[i] {
			t.Fatalf("CDF point %d differs", i)
		}
	}
}

// sketchTolerance brackets the acceptable quantile estimate: within the
// sketch's relative accuracy of the order statistics neighboring the target
// rank (adjacent order stats absorb the rank-vs-interpolation difference).
func sketchBracket(sorted []float64, q, alpha float64) (lo, hi float64) {
	n := len(sorted)
	pos := q * float64(n-1)
	i := int(math.Floor(pos)) - 1
	j := int(math.Ceil(pos)) + 1
	if i < 0 {
		i = 0
	}
	if j > n-1 {
		j = n - 1
	}
	lo, hi = sorted[i], sorted[j]
	lo -= alpha*math.Abs(lo) + 1e-9
	hi += alpha*math.Abs(hi) + 1e-9
	return lo, hi
}

// Property: on the binned path, sketch quantiles stay within the advertised
// relative accuracy of the exact quantiles, across distribution shapes.
func TestPropertySketchQuantileTolerance(t *testing.T) {
	f := func(seed int64, shape uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3000
		xs := make([]float64, n)
		for i := range xs {
			switch shape % 3 {
			case 0: // uniform
				xs[i] = rng.Float64() * 1000
			case 1: // lognormal-ish heavy tail
				xs[i] = math.Exp(rng.NormFloat64() * 2)
			default: // bimodal with zeros
				if rng.Float64() < 0.3 {
					xs[i] = 0
				} else {
					xs[i] = 200 + rng.NormFloat64()*20
				}
			}
		}
		// Small cap forces the binned path.
		s := NewSketchAccuracy(DefaultSketchAlpha, 64)
		for _, x := range xs {
			s.Add(x)
		}
		if exact(s) {
			return false
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
			lo, hi := sketchBracket(sorted, q, 2*DefaultSketchAlpha)
			got := s.Quantile(q)
			if got < lo || got > hi {
				t.Logf("seed=%d shape=%d q=%v got=%v want [%v, %v]", seed, shape, q, got, lo, hi)
				return false
			}
		}
		return s.Min() == sorted[0] && s.Max() == sorted[n-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: merging partial sketches is order-invariant — any permutation
// and any grouping of the partials yields identical quantiles.
func TestPropertySketchMergeOrderInvariant(t *testing.T) {
	f := func(seed int64, parts uint8, cap16 uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(parts)%5 + 2
		cap := int(cap16)%500 + 8 // small enough to exercise both paths
		n := 600 + rng.Intn(2000)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 5000
		}
		build := func(order []int) *Sketch {
			partials := make([]*Sketch, k)
			for p := 0; p < k; p++ {
				partials[p] = NewSketchAccuracy(DefaultSketchAlpha, cap)
			}
			for i, x := range xs {
				partials[i%k].Add(x)
			}
			out := NewSketchAccuracy(DefaultSketchAlpha, cap)
			for _, p := range order {
				out.Merge(partials[p])
			}
			return out
		}
		fwd := make([]int, k)
		rev := make([]int, k)
		shuf := make([]int, k)
		for i := 0; i < k; i++ {
			fwd[i], rev[k-1-i] = i, i
			shuf[i] = i
		}
		rng.Shuffle(k, func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })
		a, b, c := build(fwd), build(rev), build(shuf)
		if a.N() != n || b.N() != n || c.N() != n {
			return false
		}
		for _, q := range []float64{0, 0.05, 0.25, 0.5, 0.75, 0.95, 1} {
			qa := a.Quantile(q)
			if qa != b.Quantile(q) || qa != c.Quantile(q) {
				t.Logf("seed=%d k=%d cap=%d q=%v: %v / %v / %v", seed, k, cap, q, qa, b.Quantile(q), c.Quantile(q))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSketchMergeExactIntoEmpty(t *testing.T) {
	a := NewSketch()
	b := NewSketch()
	for i := 0; i < 10; i++ {
		b.Add(float64(i))
	}
	a.Merge(b)
	if !exact(a) || a.N() != 10 {
		t.Fatalf("empty-merge lost the exact path: exact=%v n=%d", exact(a), a.N())
	}
	if a.Quantile(0.5) != 4.5 {
		t.Fatalf("median=%v want 4.5", a.Quantile(0.5))
	}
	// Merging must not mutate the source.
	if b.N() != 10 || !exact(b) {
		t.Fatal("merge mutated its argument")
	}
}

func TestSketchMergeAlphaMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merging different-accuracy sketches should panic")
		}
	}()
	a := NewSketchAccuracy(0.005, 10)
	b := NewSketchAccuracy(0.02, 10)
	a.Add(1)
	b.Add(2)
	a.Merge(b)
}

func TestSketchNegativeValues(t *testing.T) {
	s := NewSketchAccuracy(DefaultSketchAlpha, 4)
	xs := []float64{-100, -10, -1, 0, 1, 10, 100}
	for _, x := range xs {
		s.Add(x)
	}
	if exact(s) {
		t.Fatal("should have promoted")
	}
	if s.Min() != -100 || s.Max() != 100 {
		t.Fatalf("min/max %v/%v", s.Min(), s.Max())
	}
	med := s.Quantile(0.5)
	if math.Abs(med) > 0.01 {
		t.Fatalf("median %v want ~0", med)
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := s.Quantile(q)
		if v < prev {
			t.Fatalf("quantiles not monotone at q=%v: %v < %v", q, v, prev)
		}
		prev = v
	}
}

func TestDistExactSummaryMatchesSummarize(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := NewDist()
	xs := make([]float64, 700)
	for i := range xs {
		xs[i] = rng.Float64() * 30
		d.Add(xs[i])
	}
	got, err := d.Summary()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Summarize(xs)
	if got != want {
		t.Fatalf("exact-path summary differs:\n got %+v\nwant %+v", got, want)
	}
	if d.Mean() != Mean(xs) {
		t.Fatal("exact-path mean differs from batch Mean")
	}
}

func TestDistBinnedSummaryClose(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := &Dist{S: NewSketchAccuracy(DefaultSketchAlpha, 32)}
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = rng.Float64()*100 + 1
		d.Add(xs[i])
	}
	got, err := d.Summary()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Summarize(xs)
	if !almost(got.Mean, want.Mean, 1e-6) || got.Min != want.Min || got.Max != want.Max {
		t.Fatalf("binned moments off: %+v vs %+v", got, want)
	}
	if math.Abs(got.Median-want.Median) > 0.02*want.Median+0.5 {
		t.Fatalf("binned median %v vs exact %v", got.Median, want.Median)
	}
}

func TestGroupedMerge(t *testing.T) {
	var a, b Grouped
	a.Add("x", 1)
	a.Add("x", 2)
	a.Add("y", 5)
	b.Add("x", 3)
	b.Add("z", 7)
	a.Merge(&b)
	if got := a.Keys(); len(got) != 3 || got[0] != "x" || got[1] != "y" || got[2] != "z" {
		t.Fatalf("keys=%v", got)
	}
	if a.Get("x").N() != 3 || a.Get("z").N() != 1 {
		t.Fatal("merged counts wrong")
	}
	if a.Get("missing") != nil {
		t.Fatal("missing key should be nil")
	}
	if !almost(a.Get("x").Mean(), 2, 1e-9) {
		t.Fatalf("x mean=%v", a.Get("x").Mean())
	}
}

func TestCounter(t *testing.T) {
	var a, b Counter
	a.Add("US", 2)
	a.Add("UK", 1)
	b.Add("US", 3)
	a.Merge(&b)
	if a.Get("US") != 5 || a.Get("UK") != 1 || a.Total() != 6 || a.Len() != 2 {
		t.Fatalf("counter wrong: US=%d UK=%d total=%d", a.Get("US"), a.Get("UK"), a.Total())
	}
	if keys := a.Keys(); keys[0] != "UK" || keys[1] != "US" {
		t.Fatalf("keys=%v", keys)
	}
}
