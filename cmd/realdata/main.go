// Command realdata is the analysis tool the paper's Notes section announced:
// it reads a RealTracer trace (CSV or JSON, as written by cmd/study or a
// live cmd/realtracer run) and regenerates the study's figures from it,
// decoupling collection from analysis.
//
// Usage:
//
//	realdata -in trace.csv [-figure figNN] [-summary]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"realtracer/internal/core"
	"realtracer/internal/figures"
	"realtracer/internal/trace"
)

func main() {
	in := flag.String("in", "", "trace file (.csv or .json)")
	figure := flag.String("figure", "", "regenerate one figure (fig05..fig28)")
	summary := flag.Bool("summary", false, "print headline statistics only")
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "realdata: -in trace file required")
		os.Exit(2)
	}
	f, err := os.Open(*in)
	if err != nil {
		fatalf("open: %v", err)
	}
	defer f.Close()
	var recs []*trace.Record
	if strings.HasSuffix(*in, ".json") {
		recs, err = trace.ReadJSON(f)
	} else {
		recs, err = trace.ReadCSV(f)
	}
	if err != nil {
		fatalf("parse %s: %v", *in, err)
	}
	if len(recs) == 0 {
		fatalf("no records in %s", *in)
	}
	agg := figures.Aggregate(recs)
	switch {
	case *figure != "":
		fig, err := core.RunFigure(*figure, agg)
		if err != nil {
			fatalf("%v", err)
		}
		fig.Render(os.Stdout)
	case *summary:
		s, _ := agg.FrameRate().Summary()
		j, _ := agg.Jitter().Summary()
		fmt.Printf("records=%d played=%d rated=%d\n", agg.Total(), agg.Played(), agg.Rated())
		fmt.Printf("frame rate: mean=%.1f median=%.1f\n", s.Mean, s.Median)
		fmt.Printf("jitter: mean=%.0fms median=%.0fms\n", j.Mean, j.Median)
	default:
		core.RenderAll(os.Stdout, agg)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
