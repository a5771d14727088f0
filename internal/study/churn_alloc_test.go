package study

import (
	"bytes"
	"runtime"
	"testing"

	"realtracer/internal/trace"
)

// sessionAllocBudget bounds the steady-state allocations per open-loop
// session. A session is not allocation-free — each clip still dials fresh
// control/data connections and the RTSP exchange builds messages — but the
// bundle free-list keeps the per-session object graph (tracer, player,
// arenas, record storage, plan scratch) out of the count, and the control
// plane sizes its messages instead of rendering them, shares each clip's
// DESCRIBE body and recycles conn storage. Before the free-list a session
// cost ~10,000 allocations; with it ~410, ~308 once packet cells were leased,
// and the measured steady state is now ~99 (101 under -race). The budget sits
// ~2x above it so a regression back toward per-arrival construction — or per-
// message rendering — fails loudly while dial/RTSP noise does not.
const sessionAllocBudget = 200

// sessionBytesBudget bounds the bytes (MemStats.TotalAlloc) a steady-state
// session allocates: the size fence beside the count fence. While packet
// cells were carved once per packet a session read 195,066 bytes on this
// window; leased from free-lists it read 24,479 (11,321 now that RTSP text
// is sized, not rendered), and the budget is 60 % of the old reading, so
// carving per packet again — in an arena slab or the segment pool — fails
// here even though it is only one allocation per 64 cells and barely moves
// the count above.
const sessionBytesBudget = 117_000

// churnOpts is the high-intensity open-loop study the recycle tests share:
// a small template pool driven hard enough that mid-stream abandonment and
// template reuse both occur.
func churnOpts() Options {
	return Options{Seed: 11, MaxUsers: 6, ClipCap: 2, Workload: "poisson", Arrivals: 25, WorkloadIntensity: 3}
}

// TestSessionChurnAllocBudget is the tentpole's regression fence, the
// open-loop mirror of transport's TestSteadyStateAllocBudget: once every
// template's bundle exists, admitting / playing / ending a session reuses
// the pooled machinery instead of rebuilding it.
func TestSessionChurnAllocBudget(t *testing.T) {
	w, err := NewWorld(Options{Seed: 31, MaxUsers: 12, ClipCap: 2, Workload: "poisson", Arrivals: 5000})
	if err != nil {
		t.Fatal(err)
	}
	// Stream records instead of retaining them: record storage is only
	// recycled when the sink lets go of each record, which is the shape
	// the population-scale benchmarks run in.
	var observed int
	w.SetSink(trace.SinkFunc(func(*trace.Record) { observed++ }))

	o := w.open.cells[0] // the classic engine runs a single arrival cell
	completed := func() int { return o.sessions - o.active }
	runSessions := func(n int) {
		for target := completed() + n; completed() < target; {
			if !w.Clock.Step() {
				t.Fatal("clock drained before the session window completed")
			}
		}
	}

	// Warm-up: rotate through the pool enough times that every template's
	// bundle is built and every free-list (sessions, hosts, packet slabs,
	// record scratch) has reached steady state.
	runSessions(5 * len(w.Users))
	if observed == 0 {
		t.Fatal("warm-up streamed no records")
	}

	const window = 20
	perSession := testing.AllocsPerRun(3, func() { runSessions(window) }) / window
	t.Logf("steady-state allocations per session: %.0f (budget %d)", perSession, sessionAllocBudget)
	if perSession > sessionAllocBudget {
		t.Errorf("steady-state churn allocates %.0f objects per session, budget %d — the session free-list has regressed",
			perSession, sessionAllocBudget)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runSessions(3 * window)
	runtime.ReadMemStats(&after)
	bytesPerSession := (after.TotalAlloc - before.TotalAlloc) / (3 * window)
	t.Logf("steady-state bytes allocated per session: %d (budget %d)", bytesPerSession, sessionBytesBudget)
	if bytesPerSession > sessionBytesBudget {
		t.Errorf("steady-state churn allocates %d bytes per session, budget %d — packet cells are being carved, not leased",
			bytesPerSession, sessionBytesBudget)
	}
}

// shardedSessionAllocBudget bounds the steady-state allocations per session
// under the sharded engine. On top of the classic per-session costs the
// sharded path buffers each record until the merge (the collector retains
// it, so its storage is never recycled), re-launches the fabric's worker
// goroutines per measured Run call, and pays queue-growth noise on the
// cross-shard outboxes — but the transit snapshots themselves are pooled,
// so the per-packet copy tax that once made a sharded session cost tens of
// thousands of allocations must stay gone. Measured steady state is ~101
// (104 under -race; ~308 before the control plane stopped rendering what it
// only measures); the budget sits ~2x above it, matching the classic fence's
// convention.
const shardedSessionAllocBudget = 200

// TestShardedChurnAllocBudget is the sharded mirror of
// TestSessionChurnAllocBudget: once the transit pools and bundle free-lists
// are warm, a session's worth of cross-shard traffic leases its snapshots
// from the per-shard pools instead of allocating each copy fresh. A
// regression back to allocate-per-copy (PR 7's copy-at-send tax) blows the
// budget by an order of magnitude.
func TestShardedChurnAllocBudget(t *testing.T) {
	w, err := NewWorld(Options{Seed: 31, MaxUsers: 12, ClipCap: 2, Workload: "poisson", Arrivals: 5000, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	o := w.open
	completed := func() int { n := o.totals(); return n.sessions - n.active }
	runSessions := func(n int) {
		target := completed() + n
		w.fab.Run(func() bool { return completed() >= target })
		if completed() < target {
			t.Fatal("fabric drained before the session window completed")
		}
	}

	// Warm-up: rotate through the pool enough times that every bundle is
	// built and the per-shard packet and transit free-lists reach steady
	// state (including a few rebalance cycles between the shards).
	runSessions(5 * len(w.Users))

	const window = 20
	perSession := testing.AllocsPerRun(3, func() { runSessions(window) }) / window
	t.Logf("steady-state allocations per sharded session: %.0f (budget %d)", perSession, shardedSessionAllocBudget)
	if perSession > shardedSessionAllocBudget {
		t.Errorf("steady-state sharded churn allocates %.0f objects per session, budget %d — the transit pool has regressed",
			perSession, shardedSessionAllocBudget)
	}
}

// TestOpenLoopChurnDeterministic: pooled bundles must not leak state across
// the sessions they serve. Identical high-churn runs — departures tearing
// hosts out mid-stream, every template recycled repeatedly — produce
// byte-identical records; any predecessor state surviving a recycle would
// perturb the second run's draw stream or measurements.
func TestOpenLoopChurnDeterministic(t *testing.T) {
	run := func() (*Result, []byte) {
		res, err := Run(churnOpts())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.WriteCSV(&buf, res.Records); err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes()
	}
	a, csvA := run()
	b, csvB := run()
	if a.Departed == 0 {
		t.Fatal("churn run saw no mid-stream departures; the abandonment recycle path went untested")
	}
	if a.Sessions <= len(a.Users) {
		t.Fatalf("only %d sessions over a %d-template pool; no bundle was recycled", a.Sessions, len(a.Users))
	}
	if !bytes.Equal(csvA, csvB) {
		t.Fatal("records differ between identical high-churn runs: recycled session state leaked")
	}
	if a.Sessions != b.Sessions || a.Departed != b.Departed || a.Balked != b.Balked {
		t.Fatal("session accounting differs between identical high-churn runs")
	}
}

// TestOpenLoopBundlesAreReused: the free-list actually frees — a run with
// more sessions than templates finishes with at most one bundle per
// template, every one quiescent. One bundle serving several time-disjoint
// sessions is the lifecycle the alloc budget above depends on.
func TestOpenLoopBundlesAreReused(t *testing.T) {
	w, err := NewWorld(churnOpts())
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	built := 0
	for _, b := range w.open.cells[0].bundles {
		if b == nil {
			continue
		}
		built++
		if !b.done {
			t.Fatalf("template %s bundle still live after the run ended", w.Users[b.idx].Name)
		}
	}
	if built == 0 || built > len(w.Users) {
		t.Fatalf("%d bundles built for a %d-template pool", built, len(w.Users))
	}
	if res.Sessions <= built {
		t.Fatalf("%d sessions over %d bundles; no bundle served more than one session", res.Sessions, built)
	}
}
