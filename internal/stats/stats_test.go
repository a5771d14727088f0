package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummarizeKnownValues(t *testing.T) {
	s, err := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 8 || s.Mean != 5 || s.Min != 2 || s.Max != 9 {
		t.Fatalf("summary wrong: %+v", s)
	}
	if !almost(s.StdDev, 2, 1e-9) {
		t.Fatalf("stddev=%v want 2", s.StdDev)
	}
	if !almost(s.Median, 4.5, 1e-9) {
		t.Fatalf("median=%v want 4.5", s.Median)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
}

func TestQuantileEndpoints(t *testing.T) {
	xs := []float64{5, 1, 3}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 5 {
		t.Fatal("quantile endpoints wrong")
	}
	if !almost(Quantile(xs, 0.5), 3, 1e-9) {
		t.Fatal("median wrong")
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestCDFBasics(t *testing.T) {
	c, err := NewCDF([]float64{1, 2, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {10, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); !almost(got, tc.want, 1e-9) {
			t.Errorf("At(%v)=%v want %v", tc.x, got, tc.want)
		}
	}
	if got := c.FractionBelow(2); !almost(got, 0.25, 1e-9) {
		t.Errorf("FractionBelow(2)=%v want 0.25", got)
	}
	if got := c.FractionAtLeast(2); !almost(got, 0.75, 1e-9) {
		t.Errorf("FractionAtLeast(2)=%v want 0.75", got)
	}
}

func TestCDFQuantileInverse(t *testing.T) {
	c, _ := NewCDF([]float64{10, 20, 30, 40})
	if c.Quantile(0.5) != 20 {
		t.Fatalf("Quantile(0.5)=%v", c.Quantile(0.5))
	}
	if c.Quantile(1) != 40 || c.Quantile(0.01) != 10 {
		t.Fatal("quantile tails wrong")
	}
}

// Property: a CDF is monotone non-decreasing, starts >0 and ends at 1.
func TestPropertyCDFMonotone(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%60) + 1
		xs := make([]float64, count)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		c, err := NewCDF(xs)
		if err != nil {
			return false
		}
		if !almost(c.F[len(c.F)-1], 1, 1e-9) {
			return false
		}
		for i := 1; i < len(c.F); i++ {
			if c.F[i] < c.F[i-1] || c.X[i] <= c.X[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: At(x) equals the directly counted fraction <= x.
func TestPropertyCDFAtMatchesCount(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 40)
		for i := range xs {
			xs[i] = float64(rng.Intn(20))
		}
		c, _ := NewCDF(xs)
		probe := float64(rng.Intn(22)) - 1
		n := 0
		for _, x := range xs {
			if x <= probe {
				n++
			}
		}
		return almost(c.At(probe), float64(n)/float64(len(xs)), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCDFPoints(t *testing.T) {
	c, _ := NewCDF([]float64{0, 10})
	xs, fs := c.Points(11)
	if len(xs) != 11 || xs[0] != 0 || xs[10] != 10 {
		t.Fatalf("points span wrong: %v", xs)
	}
	for i := 1; i < len(fs); i++ {
		if fs[i] < fs[i-1] {
			t.Fatal("points not monotone")
		}
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if r := Pearson(xs, ys); !almost(r, 1, 1e-9) {
		t.Fatalf("r=%v want 1", r)
	}
	neg := []float64{8, 6, 4, 2}
	if r := Pearson(xs, neg); !almost(r, -1, 1e-9) {
		t.Fatalf("r=%v want -1", r)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if Pearson([]float64{1, 2}, []float64{1}) != 0 {
		t.Fatal("mismatched lengths should give 0")
	}
	if Pearson([]float64{1, 1}, []float64{2, 3}) != 0 {
		t.Fatal("zero variance should give 0")
	}
}

func TestScatterBin(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 10, 11}
	ys := []float64{1, 1, 1, 1, 5, 7}
	centers, means := ScatterBin(xs, ys, 2)
	if len(centers) != 2 {
		t.Fatalf("bins=%d", len(centers))
	}
	if !almost(means[1], 6, 1e-9) {
		t.Fatalf("high-bin mean=%v want 6", means[1])
	}
}

// TestNonFiniteSamplesTerminate: a trace file or a snapshot can carry NaN and
// ±Inf; the builders must return, not spin (NewCDF used to append forever on
// a NaN, which equals nothing) or index out of range (ScatterBin's bin of a
// NaN is the most negative int).
func TestNonFiniteSamplesTerminate(t *testing.T) {
	xs := []float64{1, math.NaN(), 2, math.Inf(1), math.NaN(), math.Inf(-1)}
	c, err := NewCDF(xs)
	if err != nil || len(c.X) != len(xs) || c.F[len(c.F)-1] != 1 {
		t.Fatalf("NewCDF over non-finite samples: %v, %d points", err, len(c.X))
	}
	for _, in := range [][]float64{xs, {1, 2, math.NaN()}, {math.NaN(), 1, 2}, {1, math.Inf(1)}} {
		ScatterBin(in, make([]float64, len(in)), 4) // must not panic
	}
}

// Property: StdDev is translation invariant and scales with the data.
func TestPropertyStdDevAffine(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 30)
		for i := range xs {
			xs[i] = rng.Float64() * 50
		}
		shifted := make([]float64, len(xs))
		scaled := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + 1000
			scaled[i] = x * 3
		}
		sd := StdDev(xs)
		return almost(StdDev(shifted), sd, 1e-6) && almost(StdDev(scaled), 3*sd, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestPropertyQuantileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 25)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(xs, q)
			if v < prev || v < sorted[0] || v > sorted[len(sorted)-1] {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
