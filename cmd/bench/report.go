package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// reportSchema versions the JSON written by -out and read by -compare.
const reportSchema = 1

// report is one run of one workload: the fixed-schema object -out writes.
// An untraced run fills EndToEnd, a traced run PerLayer.
type report struct {
	Schema        int                   `json:"schema"`
	Workload      string                `json:"workload"`
	Seed          int64                 `json:"seed"`
	Seconds       int                   `json:"seconds"`
	Traced        bool                  `json:"traced"`
	Go            string                `json:"go"`
	NumCPU        int                   `json:"num_cpu"`
	GOMAXPROCS    int                   `json:"gomaxprocs"`
	Attempted     int                   `json:"attempted"`
	Failed        int                   `json:"failed"`
	Reruns        int                   `json:"noise_reruns"`
	HostFactor    float64               `json:"host_factor,omitempty"` // untraced: reference reading / this run's typical reading
	Failures      []string              `json:"failures,omitempty"`
	Reps          []repRecord           `json:"reps"`
	Records       int                   `json:"records"`
	RecordsDigest string                `json:"records_digest"`
	EndToEnd      map[string]e2eValue   `json:"end_to_end,omitempty"`
	PerLayer      map[string]layerValue `json:"per_layer,omitempty"`
	Note          string                `json:"note"`
}

// repRecord is one attempted rep, in order: nothing is silently dropped.
type repRecord struct {
	World   int     `json:"world"` // which world of the seed's family ran
	Records int     `json:"records"`
	Digest  string  `json:"records_digest"`
	WallS   float64 `json:"wall_s"`
	CalibMs float64 `json:"calib_ms"`        // the noise guard's reading before the rep
	AfterMs float64 `json:"calib_after_ms"`  // and after it
	Rerun   bool    `json:"rerun,omitempty"` // noise guard: re-run, not in the medians
	Failed  bool    `json:"failed,omitempty"`
}

// e2eValue is an end-to-end metric, the statistic as measured on this host
// (Raw; Value is that on the reference host for the three timings, the same
// number for the rest) and the distribution of the raw per-rep values
// behind it.
type e2eValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Raw   float64 `json:"raw"`
	Reps  *dist   `json:"reps,omitempty"`
}

type layerValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Exact bool    `json:"exact,omitempty"`
}

// reportSet is what `-workload all -out FILE` writes: every workload's
// untraced and traced report.
type reportSet struct {
	Schema  int       `json:"schema"`
	Reports []*report `json:"reports"`
}

func (rp *report) fail(format string, args ...any) {
	rp.Failed++
	rp.Failures = append(rp.Failures, fmt.Sprintf(format, args...))
}

func (rp *report) addTiming(t *timing) {
	rp.Attempted += t.attempted()
	rp.Reruns += t.reruns
	for _, f := range t.failures() {
		rp.fail("%s", f)
	}
	for _, s := range t.samples {
		rp.Reps = append(rp.Reps, repRecord{
			World: s.world, Records: s.res.records, Digest: fmt.Sprintf("%016x", uint64(s.res.digest)),
			WallS: s.wall.Seconds(), CalibMs: float64(s.calib) / 1e6, AfterMs: float64(s.calibAfter) / 1e6, Rerun: s.rerun, Failed: s.err != nil,
		})
	}
}

func (rp *report) setE2E(name string, v, raw float64, d *dist) {
	for _, def := range endToEnd {
		if def.Name == name {
			rp.EndToEnd[name] = e2eValue{Value: v, Unit: def.Unit, Raw: raw, Reps: d}
			return
		}
	}
	panic("bench: unknown end-to-end metric " + name)
}

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (rp *report) resultLine() resultLine {
	out := resultLine{
		Correct:   rp.Failed == 0,
		Attempted: rp.Attempted,
		Failed:    rp.Failed,
		Metrics:   map[string]metricValue{},
	}
	for k, v := range rp.EndToEnd {
		out.Metrics[k] = metricValue{Value: v.Value, Unit: v.Unit}
	}
	for k, v := range rp.PerLayer {
		out.Metrics[k] = metricValue{Value: v.Value, Unit: v.Unit}
	}
	return out
}

// print writes the human-readable account of the run, then the result
// line.
func (rp *report) print(w io.Writer) error {
	mode := "untraced"
	if rp.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s seed %d (%s, %s, %d CPUs, GOMAXPROCS %d)\n",
		rp.Workload, rp.Seed, mode, rp.Go, rp.NumCPU, rp.GOMAXPROCS)
	fmt.Fprintf(w, "  reps attempted %d, failed %d, noise re-runs %d; records %d, records_digest %s\n",
		rp.Attempted, rp.Failed, rp.Reruns, rp.Records, rp.RecordsDigest)
	if rp.HostFactor != 0 {
		fmt.Fprintf(w, "  host_factor %.4f (reference reading %v / this run's typical reading)\n", rp.HostFactor, refCalib)
	}
	for _, f := range rp.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	for _, def := range endToEnd {
		v, ok := rp.EndToEnd[def.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-6s", def.Name, v.Value, v.Unit)
		if v.Raw != v.Value {
			fmt.Fprintf(w, " raw=%.4g", v.Raw)
		}
		if d := v.Reps; d != nil {
			fmt.Fprintf(w, " n=%d min=%.4g q1=%.4g median=%.4g q3=%.4g max=%.4g", d.N, d.Min, d.Q1, d.Median, d.Q3, d.Max)
		}
		fmt.Fprintln(w)
	}
	for _, def := range perLayer {
		v, ok := rp.PerLayer[def.Name]
		if !ok {
			continue
		}
		exact := ""
		if v.Exact {
			exact = " exact"
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-6s%s\n", def.Name, v.Value, v.Unit, exact)
	}
	if rp.EndToEnd != nil && !rp.Traced {
		fmt.Fprintf(w, "  (%s)\n", rp.Note)
	}
	line, err := json.Marshal(rp.resultLine())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// readReports loads a -out file: a single report or a set.
func readReports(path string) ([]*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set reportSet
	if err := json.Unmarshal(b, &set); err == nil && len(set.Reports) > 0 {
		return set.Reports, checkSchema(path, set.Schema)
	}
	var one report
	if err := json.Unmarshal(b, &one); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if one.Workload == "" {
		return nil, fmt.Errorf("%s: not a bench report", path)
	}
	return []*report{&one}, checkSchema(path, one.Schema)
}

func checkSchema(path string, schema int) error {
	if schema != reportSchema {
		return fmt.Errorf("%s: report schema %d, this harness reads %d", path, schema, reportSchema)
	}
	return nil
}
