// Package figures regenerates every figure of the paper's evaluation from a
// set of trace records: the demographic breakdowns (Figures 5-10), the
// frame-rate analysis (11, 12, 14, 15, 17, 19), bandwidth (13, 18), the
// transport mix (16), jitter (20-25) and perceptual quality (26-28).
//
// Every generator is a method of the single-pass Aggregates build over the
// record stream (see aggregates.go): records are aggregated as they are
// produced — Aggregates is a trace.Sink — or from a slice by Aggregate, and
// the figures computed from the aggregate without ever holding the records
// in memory.
//
// Each generator returns a Figure holding plottable series plus summary
// notes; Render prints it as an ASCII table the way the paper's graphs read.
package figures

import (
	"fmt"
	"io"
	"strings"

	"realtracer/internal/stats"
	"realtracer/internal/trace"
)

// Kind describes how a figure is plotted.
type Kind string

// Figure kinds.
const (
	KindCDF     Kind = "cdf"
	KindBar     Kind = "bar"
	KindPie     Kind = "pie"
	KindScatter Kind = "scatter"
	KindSeries  Kind = "timeseries"
)

// Series is one labeled line/bar-set of a figure.
type Series struct {
	Label string
	X     []float64
	Y     []float64
	// Labels substitutes for X on categorical (bar) figures.
	Labels []string
}

// Figure is a regenerated paper figure.
type Figure struct {
	ID     string
	Title  string
	Kind   Kind
	Series []Series
	// Notes carries the scalar observations the paper calls out in prose.
	Notes []string
}

func note(f *Figure, format string, args ...any) {
	f.Notes = append(f.Notes, fmt.Sprintf(format, args...))
}

// cdfSeries converts samples to a CDF series sampled densely enough to
// plot.
func cdfSeries(label string, samples []float64) Series {
	c, err := stats.NewCDF(samples)
	if err != nil {
		return Series{Label: label}
	}
	xs, fs := c.Points(64)
	return Series{Label: label, X: xs, Y: fs}
}

// Generator builds a figure from a study's aggregates.
type Generator struct {
	ID string
	// Agg builds the figure from a completed single-pass aggregate build.
	Agg func(*Aggregates) Figure
}

// All lists every record-driven figure generator in paper order. (Figure 1
// is a single-session timeline, produced by core.Fig01Timeline.)
func All() []Generator {
	return []Generator{
		{"fig05", (*Aggregates).Fig05ClipsPerUser},
		{"fig06", (*Aggregates).Fig06RatedPerUser},
		{"fig07", (*Aggregates).Fig07ByUserCountry},
		{"fig08", (*Aggregates).Fig08ByServerCountry},
		{"fig09", (*Aggregates).Fig09ByUSState},
		{"fig10", (*Aggregates).Fig10Unavailable},
		{"fig11", (*Aggregates).Fig11FrameRateAll},
		{"fig12", (*Aggregates).Fig12FrameRateByAccess},
		{"fig13", (*Aggregates).Fig13BandwidthByAccess},
		{"fig14", (*Aggregates).Fig14FrameRateByServerRegion},
		{"fig15", (*Aggregates).Fig15FrameRateByUserRegion},
		{"fig16", (*Aggregates).Fig16ProtocolMix},
		{"fig17", (*Aggregates).Fig17FrameRateByProtocol},
		{"fig18", (*Aggregates).Fig18BandwidthByProtocol},
		{"fig19", (*Aggregates).Fig19FrameRateByPC},
		{"fig20", (*Aggregates).Fig20JitterAll},
		{"fig21", (*Aggregates).Fig21JitterByAccess},
		{"fig22", (*Aggregates).Fig22JitterByServerRegion},
		{"fig23", (*Aggregates).Fig23JitterByUserRegion},
		{"fig24", (*Aggregates).Fig24JitterByProtocol},
		{"fig25", (*Aggregates).Fig25JitterByBandwidth},
		{"fig26", (*Aggregates).Fig26QualityAll},
		{"fig27", (*Aggregates).Fig27QualityByAccess},
		{"fig28", (*Aggregates).Fig28QualityVsBandwidth},
	}
}

// ByID returns the generator for an id like "fig11".
func ByID(id string) (Generator, bool) {
	for _, g := range All() {
		if g.ID == id {
			return g, true
		}
	}
	return Generator{}, false
}

// AccessOrder is the paper's access-class ordering.
var AccessOrder = []string{"56k Modem", "DSL/Cable", "T1/LAN"}

// ServerRegionOrder and UserRegionOrder follow the paper's legends.
var (
	ServerRegionOrder = []string{"Asia", "Brazil", "US/Canada", "Australia", "Europe"}
	UserRegionOrder   = []string{"Australia", "US/Canada", "Asia", "Europe"}
)

// ProtocolOrder for the protocol splits.
var ProtocolOrder = []string{"TCP", "UDP"}

// BandwidthBands are Figure 25's buckets.
var BandwidthBands = []string{"< 10K", "10K - 100K", "> 100K"}

func bandwidthBand(r *trace.Record) string {
	switch {
	case r.MeasuredKbps < 10:
		return BandwidthBands[0]
	case r.MeasuredKbps <= 100:
		return BandwidthBands[1]
	default:
		return BandwidthBands[2]
	}
}

// Render prints the figure as text: notes, then the series as aligned
// columns, plus a coarse ASCII plot for CDFs.
func (f Figure) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title)
	for _, n := range f.Notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	switch f.Kind {
	case KindBar, KindPie:
		for _, s := range f.Series {
			maxV := 0.0
			for _, v := range s.Y {
				if v > maxV {
					maxV = v
				}
			}
			for i, label := range s.Labels {
				bar := ""
				if maxV > 0 {
					bar = strings.Repeat("#", max(0, int(40*s.Y[i]/maxV)))
				}
				fmt.Fprintf(w, "   %-22s %8.3f %s\n", label, s.Y[i], bar)
			}
		}
	case KindCDF:
		// Tabulate each series at its deciles.
		for _, s := range f.Series {
			if len(s.X) == 0 {
				continue
			}
			fmt.Fprintf(w, "   %s:\n     ", s.Label)
			for q := 1; q <= 9; q++ {
				idx := quantileIndex(s.Y, float64(q)/10)
				fmt.Fprintf(w, "p%d0=%.4g ", q, s.X[idx])
			}
			fmt.Fprintln(w)
		}
	case KindScatter:
		for _, s := range f.Series {
			if s.Label != "binned mean" {
				continue
			}
			for i := range s.X {
				fmt.Fprintf(w, "   x=%8.1f  mean_y=%.2f\n", s.X[i], s.Y[i])
			}
		}
	case KindSeries:
		for _, s := range f.Series {
			fmt.Fprintf(w, "   series %s: %d points\n", s.Label, len(s.X))
		}
	}
	fmt.Fprintln(w)
}

// quantileIndex returns the first index of ys (a CDF's F values) reaching q.
func quantileIndex(ys []float64, q float64) int {
	for i, y := range ys {
		if y >= q {
			return i
		}
	}
	return len(ys) - 1
}
