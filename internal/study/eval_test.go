package study

import (
	"fmt"
	"testing"

	"realtracer/internal/stats"
	"realtracer/internal/trace"
)

// TestPaperShapes runs the full campaign and asserts the paper's
// qualitative findings — the orderings, crossovers and rough fractions of
// every evaluation figure. Absolute values need not match (our substrate is
// a simulator); shapes must. Skipped under -short.
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	res, err := Run(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	recs := res.Records
	played := playedRecs(recs)
	rated := ratedRecs(recs)

	fps := func(rs []*trace.Record) []float64 {
		return recValues(rs, func(r *trace.Record) float64 { return r.MeasuredFPS })
	}
	jit := func(rs []*trace.Record) []float64 {
		return recValues(rs, func(r *trace.Record) float64 { return r.JitterMs })
	}
	byAccess := func(acc string) []*trace.Record {
		return filterRecs(played, func(r *trace.Record) bool { return r.Access == acc })
	}
	byProto := func(p string) []*trace.Record {
		return filterRecs(played, func(r *trace.Record) bool { return r.Protocol == p })
	}
	cdf := func(vals []float64) stats.CDF {
		c, err := stats.NewCDF(vals)
		if err != nil {
			t.Fatalf("empty sample: %v", err)
		}
		return c
	}

	t.Run("headline counts", func(t *testing.T) {
		if len(res.Users) != 63 {
			t.Errorf("users=%d want 63", len(res.Users))
		}
		if len(recs) < 2300 || len(recs) > 3400 {
			t.Errorf("clip attempts=%d, paper ~2855", len(recs))
		}
		if len(rated) < 250 || len(rated) > 550 {
			t.Errorf("rated=%d, paper ~388", len(rated))
		}
		unavailable := 0
		for _, r := range recs {
			if r.Unavailable {
				unavailable++
			}
		}
		frac := float64(unavailable) / float64(len(recs))
		if frac < 0.05 || frac > 0.16 {
			t.Errorf("unavailability %.2f, paper ~0.10 (fig 10)", frac)
		}
	})

	t.Run("fig11 frame rate overall", func(t *testing.T) {
		c := cdf(fps(played))
		s, _ := stats.Summarize(fps(played))
		if s.Mean < 7 || s.Mean > 13 {
			t.Errorf("mean fps %.1f, paper 10", s.Mean)
		}
		if b := c.FractionBelow(3); b < 0.08 || b > 0.35 {
			t.Errorf("below 3 fps %.2f, paper ~0.25", b)
		}
		if a := c.FractionAtLeast(15); a < 0.08 || a > 0.40 {
			t.Errorf("15+ fps %.2f, paper ~0.25", a)
		}
		if f := c.FractionAtLeast(24); f > 0.05 {
			t.Errorf("full-motion fraction %.3f, paper <0.01", f)
		}
	})

	t.Run("fig12 access ordering", func(t *testing.T) {
		modem := cdf(fps(byAccess("56k Modem")))
		dsl := cdf(fps(byAccess("DSL/Cable")))
		t1 := cdf(fps(byAccess("T1/LAN")))
		if modem.FractionBelow(3) <= dsl.FractionBelow(3) {
			t.Error("modems must be worse than DSL below 3 fps")
		}
		if modem.FractionBelow(3) < 0.35 {
			t.Errorf("modem below-3 %.2f, paper >0.5", modem.FractionBelow(3))
		}
		if modem.FractionAtLeast(15) > 0.10 {
			t.Errorf("modem 15+ %.2f, paper <0.10", modem.FractionAtLeast(15))
		}
		// DSL and T1 roughly comparable (the paper's "nearly the same").
		if d, v := dsl.FractionBelow(3), t1.FractionBelow(3); d > v+0.15 || v > d+0.15 {
			t.Errorf("DSL (%.2f) and T1 (%.2f) below-3 fractions should be close", d, v)
		}
	})

	t.Run("fig13 bandwidth by access", func(t *testing.T) {
		kbps := func(rs []*trace.Record) []float64 {
			return recValues(rs, func(r *trace.Record) float64 { return r.MeasuredKbps })
		}
		modem := cdf(kbps(byAccess("56k Modem")))
		dsl := cdf(kbps(byAccess("DSL/Cable")))
		if modem.Quantile(0.95) > 60 {
			t.Errorf("modem p95 bandwidth %.0f exceeds the technology", modem.Quantile(0.95))
		}
		// DSL rarely near its 512 Kbps capacity.
		if f := dsl.FractionAtLeast(420); f > 0.10 {
			t.Errorf("DSL near capacity %.2f of the time, paper <0.10", f)
		}
	})

	t.Run("fig14 server regions similar", func(t *testing.T) {
		var means []float64
		for _, reg := range []string{"Asia", "Brazil", "US/Canada", "Australia", "Europe"} {
			rs := filterRecs(played, func(r *trace.Record) bool { return r.ServerRegion == reg })
			if len(rs) == 0 {
				t.Fatalf("no records for server region %s", reg)
			}
			means = append(means, stats.Mean(fps(rs)))
		}
		lo, hi := means[0], means[0]
		for _, m := range means {
			if m < lo {
				lo = m
			}
			if m > hi {
				hi = m
			}
		}
		// Paper: best ~13, worst ~8 — a spread under ~2x.
		if hi > 2.2*lo {
			t.Errorf("server-region spread too wide: %.1f..%.1f", lo, hi)
		}
	})

	t.Run("fig15 user regions differentiate", func(t *testing.T) {
		region := func(name string) []*trace.Record {
			return filterRecs(played, func(r *trace.Record) bool { return r.Region == name })
		}
		aus := cdf(fps(region("Australia")))
		eu := cdf(fps(region("Europe")))
		if aus.FractionBelow(3) <= eu.FractionBelow(3) {
			t.Error("Australia/NZ users must fare worse than Europe (paper fig 15)")
		}
	})

	t.Run("fig16 protocol mix", func(t *testing.T) {
		udpShare := float64(len(byProto("UDP"))) / float64(len(played))
		if udpShare < 0.45 || udpShare < 0.5-0.06 || udpShare > 0.68 {
			t.Errorf("UDP share %.2f, paper just over half", udpShare)
		}
	})

	t.Run("fig17-18 protocols comparable", func(t *testing.T) {
		tcp := cdf(fps(byProto("TCP")))
		udp := cdf(fps(byProto("UDP")))
		dTCP, dUDP := tcp.FractionBelow(3), udp.FractionBelow(3)
		// Known deviation (EXPERIMENTS.md #2): our reliable TCP is cleaner
		// at the low end than the paper's, so the gap runs up to ~0.17 with
		// the opposite sign of the paper's 0.06. Bound it rather than hide
		// it.
		if dTCP > dUDP+0.20 || dUDP > dTCP+0.20 {
			t.Errorf("protocol below-3 gap too wide: TCP %.2f UDP %.2f (paper: 0.28 vs 0.22)", dTCP, dUDP)
		}
		kbps := func(rs []*trace.Record) []float64 {
			return recValues(rs, func(r *trace.Record) float64 { return r.MeasuredKbps })
		}
		mTCP, mUDP := stats.Mean(kbps(byProto("TCP"))), stats.Mean(kbps(byProto("UDP")))
		if mUDP < 0.6*mTCP || mUDP > 1.7*mTCP {
			t.Errorf("protocol bandwidths diverged: TCP %.0f UDP %.0f (paper: comparable)", mTCP, mUDP)
		}
	})

	t.Run("fig19 only oldest PCs bottleneck", func(t *testing.T) {
		mmx := filterRecs(played, func(r *trace.Record) bool { return r.PCClass == "Intel Pentium MMX / 24MB" })
		piii := filterRecs(played, func(r *trace.Record) bool { return r.PCClass == "Pentium III / 256-512MB" })
		if len(mmx) == 0 || len(piii) == 0 {
			t.Skip("PC classes under-sampled at this seed")
		}
		if stats.Mean(fps(mmx)) >= stats.Mean(fps(piii)) {
			t.Error("Pentium MMX machines should trail Pentium III")
		}
	})

	t.Run("fig20 jitter overall", func(t *testing.T) {
		c := cdf(jit(played))
		if a := c.At(50); a < 0.35 || a > 0.70 {
			t.Errorf("jitter <=50ms %.2f, paper ~0.52", a)
		}
		if g := c.FractionAtLeast(300); g < 0.08 || g > 0.45 {
			t.Errorf("jitter >=300ms %.2f, paper ~0.15", g)
		}
	})

	t.Run("fig21 jitter by access", func(t *testing.T) {
		modem := cdf(jit(byAccess("56k Modem")))
		dsl := cdf(jit(byAccess("DSL/Cable")))
		if modem.At(50) >= dsl.At(50) {
			t.Error("modem jitter must be worse than DSL")
		}
		if modem.At(50) > 0.25 {
			t.Errorf("modem jitter-free %.2f, paper ~0.10", modem.At(50))
		}
	})

	t.Run("fig25 jitter tracks bandwidth", func(t *testing.T) {
		low := filterRecs(played, func(r *trace.Record) bool { return r.MeasuredKbps <= 100 && r.MeasuredKbps >= 10 })
		high := filterRecs(played, func(r *trace.Record) bool { return r.MeasuredKbps > 100 })
		if len(low) == 0 || len(high) == 0 {
			t.Skip("bands under-sampled")
		}
		cl, ch := cdf(jit(low)), cdf(jit(high))
		if ch.At(50) <= cl.At(50) {
			t.Error("high-bandwidth clips must be smoother than low-bandwidth clips")
		}
	})

	t.Run("fig26 ratings near uniform mean 5", func(t *testing.T) {
		ratings := recValues(rated, func(r *trace.Record) float64 { return r.Rating })
		s, _ := stats.Summarize(ratings)
		if s.Mean < 4 || s.Mean > 6.2 {
			t.Errorf("rating mean %.1f, paper ~5", s.Mean)
		}
		if s.StdDev < 1.5 {
			t.Errorf("rating spread %.1f too tight for a near-uniform distribution", s.StdDev)
		}
	})

	t.Run("fig27 quality ordering by access", func(t *testing.T) {
		ratingsFor := func(acc string) []float64 {
			return recValues(filterRecs(rated, func(r *trace.Record) bool { return r.Access == acc }),
				func(r *trace.Record) float64 { return r.Rating })
		}
		modem, dsl := ratingsFor("56k Modem"), ratingsFor("DSL/Cable")
		if len(modem) < 5 || len(dsl) < 5 {
			t.Skip("rated subsets too small")
		}
		if stats.Mean(modem) >= stats.Mean(dsl) {
			t.Errorf("modem ratings (%.1f) should trail DSL (%.1f)", stats.Mean(modem), stats.Mean(dsl))
		}
	})

	t.Run("fig28 weak correlation, no low ratings at high bandwidth", func(t *testing.T) {
		xs := recValues(rated, func(r *trace.Record) float64 { return r.MeasuredKbps })
		ys := recValues(rated, func(r *trace.Record) float64 { return r.Rating })
		r := stats.Pearson(xs, ys)
		if r < 0.02 || r > 0.7 {
			t.Errorf("pearson %.2f, paper: slight upward trend only", r)
		}
		bad := 0
		for i := range xs {
			if xs[i] > 250 && ys[i] < 2 {
				bad++
			}
		}
		if bad > len(xs)/50 {
			t.Errorf("%d very low ratings at high bandwidth; paper found a notable lack", bad)
		}
	})

	// Record the headline numbers for EXPERIMENTS.md refreshes.
	c := cdf(fps(played))
	j := cdf(jit(played))
	s, _ := stats.Summarize(fps(played))
	fmt.Printf("[eval] attempts=%d played=%d rated=%d meanfps=%.1f below3=%.2f ge15=%.2f jit50=%.2f jit300=%.2f\n",
		len(recs), len(played), len(rated), s.Mean, c.FractionBelow(3), c.FractionAtLeast(15), j.At(50), j.FractionAtLeast(300))
}

// Record-slice helpers for the shape assertions (the production pipeline
// computes everything from figures.Aggregates; these tests read the raw
// records on purpose, as an independent check).

func filterRecs(recs []*trace.Record, pred func(*trace.Record) bool) []*trace.Record {
	var out []*trace.Record
	for _, r := range recs {
		if pred(r) {
			out = append(out, r)
		}
	}
	return out
}

// playedRecs is the denominator of the performance figures: sessions that
// streamed data.
func playedRecs(recs []*trace.Record) []*trace.Record {
	return filterRecs(recs, func(r *trace.Record) bool { return !r.Unavailable && !r.Failed })
}

// ratedRecs is the watched-and-rated subset (Figures 26-28).
func ratedRecs(recs []*trace.Record) []*trace.Record {
	return filterRecs(playedRecs(recs), func(r *trace.Record) bool { return r.Rated })
}

func recValues(recs []*trace.Record, get func(*trace.Record) float64) []float64 {
	out := make([]float64, 0, len(recs))
	for _, r := range recs {
		out = append(out, get(r))
	}
	return out
}
