// Command bench is the repository's one measurement harness: five canonical
// worlds, every end-to-end metric by name with its unit, and — with
// -trace 1 — a per-layer cost ledger. BENCHMARK.json at the repository root
// names the workloads and metrics; README.md says why each exists.
//
//	bench -workload poisson1k -seed 1            end-to-end metrics
//	bench -workload poisson1k -seed 1 -trace 1   per-layer metrics
//	bench -workload all -out set.json            every workload, both modes
//	bench -compare parent.json change.json       the delta table
//
// The last line of standard output is always one JSON object
// {"correct","attempted","failed","metrics"}.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", defaultSeconds, "how long to measure timed reps")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: one traced rep, the layer ledger, per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1: write the span log here as Chrome trace-event JSON")
	out := fs.String("out", "", "write the full report (or, with -workload all, the set) here as JSON")
	doCompare := fs.Bool("compare", false, "compare two -out files: bench -compare A.json B.json")
	runs := fs.Int("runs", 1, "with -workload all: repeat the set at this many consecutive seeds, starting at -seed")
	probe := fs.Int("setup-probe", 0, "internal: set up on this world of the seed's family, print the set-up time and peak RSS, exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "bench: "+format+"\n", a...)
		return 1
	}

	if *doCompare {
		if fs.NArg() != 2 {
			return fail("-compare takes two report files")
		}
		a, err := readReports(fs.Arg(0))
		if err != nil {
			return fail("%v", err)
		}
		b, err := readReports(fs.Arg(1))
		if err != nil {
			return fail("%v", err)
		}
		if compare(stdout, a, b) {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		return fail("unexpected arguments %v", fs.Args())
	}
	if *seconds < 1 || *runs < 1 || *traced < 0 || *traced > 1 {
		return fail("-seconds and -runs must be >= 1 and -trace 0 or 1")
	}
	if *name == "all" {
		if *out == "" {
			return fail("-workload all needs -out FILE for the set")
		}
		if err := runAll(*seed, *runs, *seconds, *out, stdout, stderr); err != nil {
			return fail("%v", err)
		}
		return 0
	}
	wl, ok := workloadByName(*name)
	if !ok {
		return fail("unknown workload %q (have %s, all)", *name, strings.Join(workloadNames(), ", "))
	}

	b := &bench{wl: wl, seed: *seed, lanes: fullLanes}
	if err := b.setup(*probe); err != nil {
		return fail("%s: set-up: %v", wl.Name, err)
	}
	// One cold study in a fresh process: what set-up costs and how much
	// memory it needs. Read here, before the rep loop inflates max-RSS with
	// however many worlds the time budget happens to fit.
	cold := coldRun{setupS: time.Since(procStart).Seconds(), rssMiB: peakRSSMiB()}
	if *probe > 0 {
		fmt.Fprintf(stdout, "%.9f %.6f\n", cold.setupS, cold.rssMiB)
		return 0
	}

	var rp *report
	if *traced == 1 {
		rp = b.runTraced(*seconds, *traceOut)
	} else {
		// setup_s is the median over setupRuns cold runs, each in its own
		// process (so heap growth and lazily built tables are in every
		// sample): this one, and probes that set up on the reference world.
		// peak_rss_mb is the median of the probes alone.
		var probes []coldRun
		for len(probes) < setupRuns-1 {
			c, err := probeSetup(wl.Name)
			if err != nil {
				return fail("%s: set-up probe: %v", wl.Name, err)
			}
			probes = append(probes, c)
		}
		rp = b.runUntraced(*seconds, cold, probes)
	}
	if *out != "" {
		if err := writeJSON(*out, rp); err != nil {
			return fail("%v", err)
		}
	}
	if err := rp.print(stdout); err != nil {
		return fail("%v", err)
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i := range workloads {
		names[i] = workloads[i].Name
	}
	return names
}

// self re-executes this binary with args, stderr passed through.
func self(args ...string) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	return cmd, nil
}

// refSeed and refWorld name the reference world the set-up probes run:
// the same world whatever --seed says. A world's peak memory is the
// high-water mark of its packet pools, an extreme-value statistic that is
// steady to 1-3% from process to process on one world and ranges over
// 83-135 MiB from world to world (panel63), so a median over the few worlds
// of a seed's family that a run can afford says more about the seed than
// about the code.
const (
	refSeed  = 1
	refWorld = 1
)

// probeSetup measures one more cold run, on the reference world, in a child
// process.
func probeSetup(name string) (coldRun, error) {
	var c coldRun
	cmd, err := self("-workload", name, "-seed", strconv.Itoa(refSeed), "-setup-probe", strconv.Itoa(refWorld))
	if err != nil {
		return c, err
	}
	outBytes, err := cmd.Output()
	if err != nil {
		return c, err
	}
	_, err = fmt.Sscanf(string(outBytes), "%g %g", &c.setupS, &c.rssMiB)
	return c, err
}

// runAll runs every workload untraced and traced at each of runs
// consecutive seeds, one child process per run so peak_rss_mb and setup_s
// belong to one workload, and writes the set.
func runAll(seed int64, runs, seconds int, out string, stdout, stderr io.Writer) error {
	set := reportSet{Schema: reportSchema}
	part := out + ".part"
	for s := seed; s < seed+int64(runs); s++ {
		for _, wl := range workloads {
			for _, traced := range []string{"0", "1"} {
				cmd, err := self("-workload", wl.Name, "-seed", strconv.FormatInt(s, 10),
					"-seconds", strconv.Itoa(seconds), "-trace", traced, "-out", part)
				if err != nil {
					return err
				}
				cmd.Stdout, cmd.Stderr = stdout, stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("%s seed %d (trace %s): %w", wl.Name, s, traced, err)
				}
				reports, err := readReports(part)
				if err != nil {
					return err
				}
				if err := os.Remove(part); err != nil {
					return err
				}
				set.Reports = append(set.Reports, reports...)
			}
		}
	}
	return writeJSON(out, set)
}
