package campaign

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"realtracer/internal/figures"
	"realtracer/internal/study"
	"realtracer/internal/trace"
)

// warmForkBase is the open-loop study the warm-fork tests share: big
// enough to have churn mid-prefix, small enough to run in well under a
// second.
func warmForkBase() study.Options {
	return study.Options{
		Seed: 17, MaxUsers: 6, ClipCap: 2,
		Workload: "poisson", Arrivals: 16, WorkloadIntensity: 2,
	}
}

// horizonOf runs opt straight through once and returns its virtual-time
// length, so warm-up instants can be placed as fractions of the horizon.
func horizonOf(t *testing.T, opt study.Options) time.Duration {
	t.Helper()
	res, err := study.Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	return res.SimDuration
}

// TestRunWarmForksDeterministicAndDivergent pins the warm-fork contract:
// re-running the same warm sweep reproduces every fork byte-for-byte,
// differently named forks diverge from each other, and each result is
// labeled with the fork's name.
func TestRunWarmForksDeterministicAndDivergent(t *testing.T) {
	base := warmForkBase()
	warmup := horizonOf(t, base) / 2
	forks := []study.Fork{{Name: "a"}, {Name: "b"}}

	run := func(workers int) *WarmForkResult {
		sum, err := RunWarmForks(base, warmup, forks, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if err := sum.Err(); err != nil {
			t.Fatal(err)
		}
		return sum
	}
	first := run(1)
	workers := runtime.NumCPU()
	if workers < 4 {
		workers = 4
	}
	second := run(workers)

	if len(first.Results) != len(forks) {
		t.Fatalf("got %d results for %d forks", len(first.Results), len(forks))
	}
	for i, r := range first.Results {
		if r.Scenario.Name != forks[i].Name {
			t.Fatalf("result %d labeled %q, want %q", i, r.Scenario.Name, forks[i].Name)
		}
		if len(r.Result.Records) == 0 {
			t.Fatalf("fork %s produced no records", r.Scenario.Name)
		}
		got := csvBytes(t, second.Results[i].Result)
		if !bytes.Equal(csvBytes(t, r.Result), got) {
			t.Errorf("fork %s not deterministic across runs/worker counts", r.Scenario.Name)
		}
	}
	if bytes.Equal(csvBytes(t, first.Results[0].Result), csvBytes(t, first.Results[1].Result)) {
		t.Error("forks a and b did not diverge")
	}
	if first.SnapshotBytes == 0 || first.Warmup != warmup {
		t.Errorf("prefix metadata missing: snapshot %d bytes, warmup %v", first.SnapshotBytes, first.Warmup)
	}
}

// TestRunWarmForksSharedPrefix proves the prefix really is shared: a fork
// resumed by the campaign layer matches the same fork resumed by hand from
// a separately taken checkpoint of the same base at the same instant.
func TestRunWarmForksSharedPrefix(t *testing.T) {
	base := warmForkBase()
	warmup := horizonOf(t, base) / 2

	sum, err := RunWarmForks(base, warmup, []study.Fork{{Name: "a"}}, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sum.Err(); err != nil {
		t.Fatal(err)
	}

	// sum.Base carries the derived WorkloadSeed the prefix actually ran
	// with; the hand-rolled control must start from the same options.
	w, err := study.NewWorld(sum.Base)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RunUntil(warmup); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := w.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	fw, err := study.Resume(&snap, &study.Fork{Name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fw.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csvBytes(t, sum.Results[0].Result), csvBytes(t, res)) {
		t.Error("campaign warm fork differs from a hand-rolled checkpoint+resume of the same fork")
	}
}

// TestRunWarmForksShareOneStaticWorld runs one warm sweep of eight forks on
// two and on four workers. Every world of a sweep — the prefix and each fork
// — is instantiated from the one static world RunWarmForks builds, so under
// -race a write one fork makes to it while another reads it is a reported
// race. Each fork's records must be equal at both worker counts and equal to
// the same fork resumed, alone, on a static world of its own. Round-robin
// selection re-homes clips to every mirror, so the forks share each clip's
// laid scenes and DESCRIBE body across servers too.
func TestRunWarmForksShareOneStaticWorld(t *testing.T) {
	base := warmForkBase()
	base.Selection = "roundrobin"
	warmup := horizonOf(t, base) / 2
	forks := make([]study.Fork, 8)
	for i := range forks {
		forks[i].Name = fmt.Sprintf("fork-%d", i)
	}
	var sums []*WarmForkResult
	for _, workers := range []int{2, 4} {
		sum, err := RunWarmForks(base, warmup, forks, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if err := sum.Err(); err != nil {
			t.Fatal(err)
		}
		sums = append(sums, sum)
	}

	w, err := study.NewWorld(sums[0].Base)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RunUntil(warmup); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := w.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	for i := range forks {
		fw, err := study.Resume(bytes.NewReader(snap.Bytes()), &forks[i])
		if err != nil {
			t.Fatal(err)
		}
		res, err := fw.Run()
		if err != nil {
			t.Fatal(err)
		}
		want := csvBytes(t, res)
		for _, sum := range sums {
			if !bytes.Equal(csvBytes(t, sum.Results[i].Result), want) {
				t.Errorf("fork %s on %d workers differs from the fork resumed on a static world of its own", forks[i].Name, sum.Workers)
			}
		}
	}
}

// TestRunWarmForksStreamed: a warm sweep whose worlds stream into aggregates
// (the snapshot carries the prefix's aggregates, never a record) must hand
// back, fork by fork and at any worker count, exactly the aggregates of the
// records the same sweep retains by default.
func TestRunWarmForksStreamed(t *testing.T) {
	base := warmForkBase()
	warmup := horizonOf(t, base) / 2
	forks := []study.Fork{{Name: "a"}, {Name: "b"}}

	retained, err := RunWarmForks(base, warmup, forks, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		streamed, err := RunWarmForks(base, warmup, forks, Config{
			Workers: workers,
			NewSink: func() trace.Sink { return figures.NewAggregates() },
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := streamed.Err(); err != nil {
			t.Fatal(err)
		}
		for i, r := range streamed.Results {
			want := retained.Results[i]
			agg, ok := r.Sink.(*figures.Aggregates)
			if !ok || r.Result.Records != nil || want.Sink != nil {
				t.Fatalf("workers=%d fork %s: sink %T with %d records retained (default sweep's sink: %T)",
					workers, r.Scenario.Name, r.Sink, len(r.Result.Records), want.Sink)
			}
			if agg.Total() == 0 || !bytes.Equal(renderAgg(agg), renderAgg(figures.Aggregate(want.Result.Records))) {
				t.Errorf("workers=%d fork %s: streamed aggregates (%d attempts) differ from the aggregates of the %d retained records",
					workers, r.Scenario.Name, agg.Total(), len(want.Result.Records))
			}
		}
	}
}

// renderAgg renders every figure plus the workload and robustness rows.
func renderAgg(a *figures.Aggregates) []byte {
	var buf bytes.Buffer
	for _, g := range figures.All() {
		g.Agg(a).Render(&buf)
	}
	fmt.Fprintf(&buf, "%+v\n%+v\n", a.Workload(), a.Robustness())
	return buf.Bytes()
}

// TestRunWarmForksValidation pins the loud-failure contract for malformed
// warm sweeps.
func TestRunWarmForksValidation(t *testing.T) {
	base := warmForkBase()
	cases := []struct {
		name   string
		forks  []study.Fork
		warmup time.Duration
		cfg    Config
		want   string
	}{
		{"no forks", nil, time.Minute, Config{}, "no forks"},
		{"unnamed fork", []study.Fork{{}}, time.Minute, Config{}, "no name"},
		{"zero warmup", []study.Fork{{Name: "a"}}, 0, Config{}, "warmup"},
		// A sink that cannot walk itself into the snapshot has already let the
		// prefix's records go.
		{"streaming sink", []study.Fork{{Name: "a"}}, time.Minute,
			Config{NewSink: func() trace.Sink { return trace.NewCSVSink(io.Discard) }},
			"sink of type *trace.CSVSink cannot be snapshotted"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunWarmForks(base, tc.warmup, tc.forks, tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// TestWarmForkSpeedup is the amortization fence behind README's PR 10
// benchmark-history row: an 8-fork sweep warmed 60% of the way through the horizon simulates
// 0.6 + 8×0.4 = 3.8 horizons instead of 8, so even on a loaded runner it
// must beat the cold control comfortably. Workers is pinned to 1 on both
// arms — the contrast is prefix amortization, not parallelism.
func TestWarmForkSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	// A sim-heavier base than warmForkBase: at 16 arrivals the fixed
	// world-build cost rivals the simulated work and dilutes the prefix
	// amortization the fence is measuring.
	base := warmForkBase()
	base.Arrivals = 64
	horizon := horizonOf(t, base)
	warmup := horizon * 6 / 10

	forks := make([]study.Fork, 8)
	for i := range forks {
		forks[i] = study.Fork{Name: fmt.Sprintf("fork-%02d", i)}
	}
	// The theoretical ratio at these parameters is ~2.1x; demand a
	// conservative 1.5x. Both arms are wall-clock, so a concurrently
	// running test package (go test ./... runs packages in parallel) can
	// tax one arm and not the other — retry up to three times and pass on
	// the best attempt, so only a machine that is *consistently* unable to
	// show the amortization fails.
	const want = 1.5
	best := 0.0
	for attempt := 1; attempt <= 3; attempt++ {
		cold := Run(SeedReplicas(base, base.Seed, len(forks)), Config{Workers: 1})
		if err := cold.Err(); err != nil {
			t.Fatal(err)
		}
		warm, err := RunWarmForks(base, warmup, forks, Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := warm.Err(); err != nil {
			t.Fatal(err)
		}
		speedup := float64(cold.Elapsed) / float64(warm.Elapsed)
		t.Logf("attempt %d: cold %v, warm %v (prefix %v of %v, %d-byte snapshot): %.2fx",
			attempt, cold.Elapsed, warm.Elapsed, warm.WarmupElapsed, warmup, warm.SnapshotBytes, speedup)
		if speedup > best {
			best = speedup
		}
		if best >= want {
			return
		}
	}
	t.Errorf("warm 8-fork sweep speedup %.2fx best of 3, want >= %.1fx", best, want)
}
