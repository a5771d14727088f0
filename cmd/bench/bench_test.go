package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// toyLanes keeps the ledger's lanes to a few milliseconds each.
var toyLanes = laneConfig{samples: 1, min: time.Millisecond}

// benchmarkJSON mirrors the keys of the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestCatalogMatchesBenchmarkJSON pins BENCHMARK.json to the harness: the
// same workloads, metrics, units, directions and bounds, in the same order.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"cmd/bench"}) {
		t.Errorf("paths = %v", bj.Paths)
	}
	if !reflect.DeepEqual(bj.Command, []string{"bash", "cmd/bench/run.sh"}) {
		t.Errorf("command = %v", bj.Command)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, harness default %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, harness %q / %q", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the harness", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		def := endToEnd[i]
		if m.Name != def.Name || m.Unit != def.Unit || m.Better != def.Better || m.Bound != def.Bound {
			t.Errorf("end_to_end[%d] = %+v, harness %+v", i, m, def)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the harness", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		def := perLayer[i]
		if m.Name != def.Name || m.Unit != def.Unit || m.Better != def.Better {
			t.Errorf("per_layer[%d] = %+v, harness %+v", i, m, def)
		}
	}
	seen := map[string]bool{}
	for _, def := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[def.Name] {
			t.Errorf("metric name %s used twice", def.Name)
		}
		seen[def.Name] = true
	}
}

// metricNames lists a result line's metric names.
func metricNames(line resultLine) map[string]bool {
	out := map[string]bool{}
	for k := range line.Metrics {
		out[k] = true
	}
	return out
}

// TestToyWorkloadsEmitEveryMetric runs every workload at toy scale, both
// modes, and checks the result lines carry exactly the catalog's names, no
// rep failed, the traced rep reproduced the untraced digest, and the
// equivalence arms held.
func TestToyWorkloadsEmitEveryMetric(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.Name, func(t *testing.T) {
			b := &bench{wl: wl, seed: 1, toy: true, lanes: toyLanes}
			if err := b.setup(0); err != nil {
				t.Fatal(err)
			}

			rp := b.runUntraced(0, coldRun{0.5, 90}, []coldRun{{0.6, 100}, {0.7, 110}})
			line := rp.resultLine()
			if !line.Correct || line.Failed != 0 || line.Attempted < minReps {
				t.Fatalf("untraced: %+v failures %v", line, rp.Failures)
			}
			want := map[string]bool{}
			for _, def := range endToEnd {
				want[def.Name] = true
				if v := line.Metrics[def.Name]; v.Value <= 0 || v.Unit != def.Unit {
					t.Errorf("%s = %+v, want a positive value in %s", def.Name, v, def.Unit)
				}
			}
			if got := metricNames(line); !reflect.DeepEqual(got, want) {
				t.Errorf("untraced metric names = %v, want %v", got, want)
			}
			// The timings are the raw statistic moved onto the reference host;
			// the counts are not touched.
			f := rp.HostFactor
			for name, want := range map[string]float64{
				"wall_s":            rp.EndToEnd["wall_s"].Raw * f,
				"records_per_s":     rp.EndToEnd["records_per_s"].Raw / f,
				"setup_s":           0.6 * f,
				"allocs_per_record": rp.EndToEnd["allocs_per_record"].Raw,
				"peak_rss_mb":       105,
			} {
				if got := rp.EndToEnd[name].Value; f <= 0 || math.Abs(got-want) > 1e-9*want {
					t.Errorf("%s = %g, want %g (host_factor %g)", name, got, want, f)
				}
			}

			tp := b.runTraced(0, filepath.Join(t.TempDir(), "trace.json"))
			line = tp.resultLine()
			if !line.Correct || line.Failed != 0 {
				t.Fatalf("traced: failures %v", tp.Failures)
			}
			want = map[string]bool{}
			for _, def := range perLayer {
				want[def.Name] = true
				if v := line.Metrics[def.Name]; v.Unit != def.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s = %+v, want a finite value in %s", def.Name, v, def.Unit)
				}
			}
			if got := metricNames(line); !reflect.DeepEqual(got, want) {
				t.Errorf("traced metric names differ from the catalog")
			}
			if tp.RecordsDigest != rp.RecordsDigest {
				t.Errorf("digest changed between runs: %s vs %s", tp.RecordsDigest, rp.RecordsDigest)
			}
			for _, name := range []string{"simclock.events", "simclock.ledger_rearm_ns_1k", "netsim.ledger_hop_ns", "core.session_udp_ms"} {
				if line.Metrics[name].Value <= 0 {
					t.Errorf("%s = %g, want > 0", name, line.Metrics[name].Value)
				}
			}
			switch {
			case b.worlds[0].opt.Shards > 0:
				if line.Metrics["fabric.equiv_ok"].Value != 1 || line.Metrics["fabric.scaling"].Value <= 0 {
					t.Errorf("fabric arms: equiv_ok %g scaling %g", line.Metrics["fabric.equiv_ok"].Value, line.Metrics["fabric.scaling"].Value)
				}
			case wl.forks > 0:
				if line.Metrics["snap.resume_equiv_ok"].Value != 1 || line.Metrics["snap.bytes"].Value <= 0 || line.Metrics["campaign.amortization"].Value <= 0 {
					t.Errorf("warm-fork arms: %+v %+v %+v", line.Metrics["snap.resume_equiv_ok"], line.Metrics["snap.bytes"], line.Metrics["campaign.amortization"])
				}
			default:
				if line.Metrics["netsim.sent"].Value <= 0 || line.Metrics["simclock.window_ns_per_event_p50"].Value <= 0 {
					t.Errorf("classic world counters missing: sent %g, window p50 %g",
						line.Metrics["netsim.sent"].Value, line.Metrics["simclock.window_ns_per_event_p50"].Value)
				}
			}
		})
	}
}

// TestFailedRepsAreCounted feeds the rep loop the ways a rep can go wrong;
// each must show up as failed reps and an incorrect result line.
func TestFailedRepsAreCounted(t *testing.T) {
	ref := repResult{records: 10, digest: 42, events: 100}
	cal := newCalibrator(true)
	ready := func(int) error { return nil }
	loop := func(prepare func(int) error, rep func(int) (repResult, error), family bool) *report {
		rp := &report{}
		rp.addTiming(measure(prepare, rep, map[int]digest{0: ref.digest}, family, cal, 0, minReps))
		return rp
	}
	cases := map[string]func(int) (repResult, error){
		"perturbed digest": func(int) (repResult, error) { r := ref; r.digest ^= 1; return r, nil },
		"zero records":     func(int) (repResult, error) { r := ref; r.records = 0; return r, nil },
		"injected error":   func(int) (repResult, error) { return repResult{}, fmt.Errorf("boom") },
		"packets lost":     func(int) (repResult, error) { r := ref; r.sent, r.delivered = 1, 2; return r, nil },
	}
	for name, rep := range cases {
		t.Run(name, func(t *testing.T) {
			line := loop(ready, rep, false).resultLine()
			if line.Correct || line.Failed == 0 || line.Failed != line.Attempted {
				t.Errorf("result line %+v: every rep should have failed", line)
			}
		})
	}
	t.Run("inputs cannot be generated", func(t *testing.T) {
		line := loop(func(int) error { return fmt.Errorf("no world") }, cases["injected error"], true).resultLine()
		if line.Correct || line.Failed != line.Attempted {
			t.Errorf("result line %+v: every rep should have failed", line)
		}
	})

	// Across a family each world has its own digest; only a world run again
	// (world 0, after the warm rep) is held to an earlier one.
	family := func(k int) (repResult, error) { r := ref; r.digest += digest(k); return r, nil }
	if rp := loop(ready, family, true); rp.Failed != 0 || rp.Attempted < minReps {
		t.Errorf("family of distinct worlds: attempted %d failed %d %v", rp.Attempted, rp.Failed, rp.Failures)
	}
	drift := func(k int) (repResult, error) { r := ref; r.digest ^= 1; return r, nil }
	if rp := loop(ready, drift, true); rp.Failed != 1 {
		t.Errorf("world 0 not reproducing the warm rep: failed %d, want 1 (%v)", rp.Failed, rp.Failures)
	}

	// One bad rep among good ones: counted, excluded, the run goes on.
	n := 0
	rp := loop(ready, func(int) (repResult, error) {
		n++
		if n == 2 {
			return repResult{}, fmt.Errorf("boom")
		}
		return ref, nil
	}, false)
	if rp.Failed != 1 || rp.Attempted < minReps+1 {
		t.Errorf("attempted %d failed %d, want one failure among at least %d reps", rp.Attempted, rp.Failed, minReps+1)
	}
}

// TestCompare checks the delta table's verdicts: a report against itself is
// all "within"; a doubled wall time is "worse" and a changed exact count is
// listed.
func TestCompare(t *testing.T) {
	wall := dist{N: 5, Min: 1, Q1: 1.01, Median: 1.02, Q3: 1.03, Max: 1.05}
	mk := func() []*report {
		un := &report{Schema: reportSchema, Workload: "poisson1k", Seed: 1, Attempted: 5, RecordsDigest: "aa",
			EndToEnd: map[string]e2eValue{}, PerLayer: map[string]layerValue{}}
		un.setE2E("wall_s", 1.02, 1.02, &wall)
		un.setE2E("records_per_s", 1000, 1000, nil)
		un.setE2E("allocs_per_record", 270, 270, nil)
		un.setE2E("peak_rss_mb", 100, 100, nil)
		un.setE2E("setup_s", 2, 2, nil)
		tr := &report{Schema: reportSchema, Workload: "poisson1k", Seed: 1, Traced: true, RecordsDigest: "aa",
			PerLayer: map[string]layerValue{"simclock.events": {Value: 5e6, Unit: "count", Exact: true}}}
		return []*report{un, tr}
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "a.json")
	if err := writeJSON(path, reportSet{Schema: reportSchema, Reports: mk()}); err != nil {
		t.Fatal(err)
	}
	a, err := readReports(path)
	if err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if compare(&out, a, a) {
		t.Errorf("a report compared with itself is worse:\n%s", out.String())
	}
	if got := strings.Count(out.String(), "| within |"); got != len(endToEnd) {
		t.Errorf("%d of %d rows within:\n%s", got, len(endToEnd), out.String())
	}
	if !strings.Contains(out.String(), "identical") {
		t.Errorf("self-compare should find exact counts identical:\n%s", out.String())
	}

	b := mk()
	slow := wall
	slow.Median *= 2
	b[0].setE2E("wall_s", 2.04, 2.04, &slow)
	b[0].setE2E("records_per_s", 1100, 1100, nil)
	b[1].PerLayer["simclock.events"] = layerValue{Value: 6e6, Unit: "count", Exact: true}
	b[1].RecordsDigest = "bb"
	out.Reset()
	if !compare(&out, a, b) {
		t.Errorf("doubled wall_s not reported as worse:\n%s", out.String())
	}
	for _, want := range []string{"| worse |", "| better |", "seed 1 simclock.events: 5000000 -> 6000000", "seed 1 records_digest: aa -> bb"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}

	noisy := mk()
	wide := dist{N: 5, Min: 0.5, Q1: 0.7, Median: 1.02, Q3: 1.4, Max: 2}
	noisy[0].setE2E("wall_s", 1.02, 1.02, &wide)
	out.Reset()
	compare(&out, a, noisy)
	if !strings.Contains(out.String(), "| unresolved |") {
		t.Errorf("a spread wider than the bound should be unresolved:\n%s", out.String())
	}

	// Several runs a side: medians across runs decide, and one slow run
	// among five is not a regression.
	var many []*report
	for seed, w := range []float64{1.0, 1.02, 1.04, 1.03, 2.5} {
		r := mk()[0]
		r.Seed = int64(seed + 1)
		r.setE2E("wall_s", w, w, nil)
		many = append(many, r)
	}
	out.Reset()
	if compare(&out, many[:4], many) {
		t.Errorf("one slow run in five reported as worse:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "| 4/5 |") {
		t.Errorf("run counts missing:\n%s", out.String())
	}
}

// TestLedgerZeroAllocLanes: the lanes the engine promises allocation-free
// (scheduler re-arm and cancel, raw and weathered packet hop, UDP message)
// must measure as such.
func TestLedgerZeroAllocLanes(t *testing.T) {
	m, err := runLedger(laneConfig{samples: 3, min: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if m["netsim.ledger_hop_allocs"] > zeroAllocBudget {
		t.Errorf("netsim hop allocates %.3f/op", m["netsim.ledger_hop_allocs"])
	}
	for name, v := range m {
		if name != "netsim.ledger_hop_allocs" && v <= 0 {
			t.Errorf("%s = %g, want > 0", name, v)
		}
	}
}

// TestCPUSharesSumToOne profiles a toy world and reads the profile back
// with the built-in reader.
func TestCPUSharesSumToOne(t *testing.T) {
	wl, _ := workloadByName("poisson1k")
	var prof bytes.Buffer
	if err := startProfile(&prof); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		if _, err := wl.runWorld(wl.options(1, true), nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, b := range cpuBuckets {
		sum += shares[b]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %g: %v", sum, shares)
	}
	if shares["netsim"]+shares["simclock"]+shares["transport"] <= 0 {
		t.Errorf("no sample landed in the engine's layers: %v", shares)
	}
}

// TestQuantileMatchesPython pins quantile to statistics.quantiles(n=4).
func TestQuantileMatchesPython(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for q, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%g) = %g, want %g", q, got, want)
		}
	}
}

// TestHostFactor: the factor is the reference reading over the median
// reading, and 1 before there is any reading.
func TestHostFactor(t *testing.T) {
	c := &calibrator{ref: 40}
	if f := c.hostFactor(); f != 1 {
		t.Errorf("no readings: host factor %g, want 1", f)
	}
	c.readings = []float64{60, 40, 50}
	if f := c.hostFactor(); f != 0.8 {
		t.Errorf("median reading 50 against reference 40: host factor %g, want 0.8", f)
	}
}
