package main

import (
	"fmt"
	"io"
)

// compare is the ROADMAP's benchdiff: A is the parent's -out file, B the
// change's. It prints the markdown table PRs paste into CHANGES.md — one
// row per workload × end-to-end metric — then every exact count and
// records_digest that differs, and reports whether any row is "worse".
//
// A side may hold several runs of a workload (`-workload all -runs N` makes
// N, at consecutive seeds). The row then compares the medians across the
// runs and takes the spread between them; with fewer than three runs the
// spread is the reps' own inside a run.
//
// Verdicts, per the choosing-metrics guide:
//
//	worse       B's median is worse than A's by more than the bound
//	unresolved  not worse, but a side's own quartile spread exceeds the
//	            bound, so "unchanged" cannot be claimed
//	better      B's median is better than A's by more than A's spread
//	within      anything else
func compare(w io.Writer, a, b []*report) (worse bool) {
	type group struct {
		workload string
		traced   bool
	}
	groupOf := func(r *report) group { return group{r.Workload, r.Traced} }
	var order []group
	inA, inB := map[group][]*report{}, map[group][]*report{}
	for _, r := range a {
		if len(inA[groupOf(r)]) == 0 {
			order = append(order, groupOf(r))
		}
		inA[groupOf(r)] = append(inA[groupOf(r)], r)
	}
	for _, r := range b {
		inB[groupOf(r)] = append(inB[groupOf(r)], r)
	}

	fmt.Fprintln(w, "| workload | metric | runs | A | B | delta | bound | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|")
	var exact []string
	for _, g := range order {
		ra, rb := inA[g], inB[g]
		if len(rb) == 0 {
			exact = append(exact, fmt.Sprintf("%s (traced=%t): missing from B", g.workload, g.traced))
			continue
		}
		for _, def := range endToEnd {
			sa, sb := sideOf(ra, def.Name), sideOf(rb, def.Name)
			if sa.n == 0 || sb.n == 0 {
				continue
			}
			verdict, delta := judge(def, sa, sb)
			worse = worse || verdict == "worse"
			fmt.Fprintf(w, "| %s | %s (%s) | %d/%d | %.5g | %.5g | %+.1f%% | %.0f%% | %s |\n",
				g.workload, def.Name, def.Unit, sa.n, sb.n, sa.median, sb.median, 100*delta, 100*def.Bound, verdict)
		}
		// Counts belong to a seed: pair the runs that share one.
		for _, x := range ra {
			for _, y := range rb {
				if x.Seed != y.Seed {
					continue
				}
				exact = append(exact, digestDiffs(x, y)...)
				if x.Failed+y.Failed > 0 {
					exact = append(exact, fmt.Sprintf("%s seed %d (traced=%t) failed reps: A %d/%d, B %d/%d",
						x.Workload, x.Seed, x.Traced, x.Failed, x.Attempted, y.Failed, y.Attempted))
					worse = worse || y.Failed > x.Failed
				}
				for _, def := range perLayer {
					va, okA := x.PerLayer[def.Name]
					vb, okB := y.PerLayer[def.Name]
					if def.Exact && okA && okB && va.Value != vb.Value {
						exact = append(exact, fmt.Sprintf("%s seed %d %s: %.10g -> %.10g", x.Workload, x.Seed, def.Name, va.Value, vb.Value))
					}
				}
			}
		}
	}
	if len(exact) == 0 {
		fmt.Fprintln(w, "\nexact counts and records_digest: identical")
	} else {
		fmt.Fprintln(w, "\nexact counts and records_digest that differ:")
		for _, e := range exact {
			fmt.Fprintf(w, "- %s\n", e)
		}
	}
	return worse
}

// side is one metric on one side of the comparison: the median across the
// side's runs and the quartile spread that goes with it, as a share.
type side struct {
	n      int
	median float64
	spread float64
}

func sideOf(runs []*report, metric string) side {
	var vals []float64
	var inner float64
	for _, r := range runs {
		if v, ok := r.EndToEnd[metric]; ok {
			vals = append(vals, v.Value)
			if d := v.Reps; d != nil && d.Median != 0 {
				inner = max(inner, (d.Q3-d.Q1)/d.Median)
			}
		}
	}
	s := side{n: len(vals), median: median(vals), spread: inner}
	if len(vals) >= 3 && s.median != 0 {
		s.spread = (quantile(vals, 0.75) - quantile(vals, 0.25)) / s.median
	}
	return s
}

// digestDiffs lists the worlds of a seed's family that both runs reached
// and whose record streams differ.
func digestDiffs(a, b *report) []string {
	var out []string
	if a.RecordsDigest != b.RecordsDigest {
		out = append(out, fmt.Sprintf("%s seed %d records_digest: %s -> %s", a.Workload, a.Seed, a.RecordsDigest, b.RecordsDigest))
	}
	inA := map[int]string{}
	for _, r := range a.Reps {
		if !r.Failed {
			inA[r.World] = r.Digest
		}
	}
	seen := map[int]bool{0: true} // world 0 is the report's own records_digest
	for _, r := range b.Reps {
		if da, ok := inA[r.World]; ok && !r.Failed && !seen[r.World] && da != r.Digest {
			out = append(out, fmt.Sprintf("%s seed %d world %d records_digest: %s -> %s", a.Workload, a.Seed, r.World, da, r.Digest))
		}
		seen[r.World] = true
	}
	return out
}

// judge returns the verdict and B's signed change as a share of A
// (positive = the value went up).
func judge(def metricDef, a, b side) (string, float64) {
	if a.median == 0 {
		return "unresolved", 0
	}
	delta := (b.median - a.median) / a.median
	worseBy := delta
	if def.Better == "higher" {
		worseBy = -delta
	}
	switch {
	case worseBy > def.Bound:
		return "worse", delta
	case max(a.spread, b.spread) > def.Bound:
		return "unresolved", delta
	case -worseBy > max(a.spread, 0.01):
		return "better", delta
	default:
		return "within", delta
	}
}
