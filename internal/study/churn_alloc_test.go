package study

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"testing"

	"realtracer/internal/trace"
)

// sessionAllocBudget bounds the steady-state allocations per open-loop
// session. A session is not allocation-free — each clip still dials fresh
// control/data connections — but the bundle free-list keeps the per-session
// object graph (tracer, player, arenas, record storage, plan scratch) out of
// the count, and the control plane leases its messages from the shard's
// arena, sizes them instead of rendering them, shares each clip's DESCRIBE
// body, recycles conn storage and the packet handler bound to it, keeps a
// dial's record in its conn, renders SETUP header values once, keeps headers
// inline, parses into the player's own description and binds every
// long-lived receiver once. Before the free-list a session cost ~10,000
// allocations; with it ~410, ~308 once packet cells were leased, ~99 once
// RTSP text was sized, ~63 once headers went inline and receivers were bound
// once, 49 once every RTSP message was leased, and the measured steady state
// is now 35 (35 under -race) with conns rebinding a recycled handler. The
// budget sits ~1.5x above it so a regression back toward per-message or
// per-dial allocation fails loudly while dial noise does not.
const sessionAllocBudget = 52

// sessionBytesBudget bounds the bytes (MemStats.TotalAlloc) a steady-state
// session allocates: the size fence beside the count fence. While packet
// cells were carved once per packet a session read 195,066 bytes on this
// window; leased from free-lists it read 24,479 (11,321 once RTSP text was
// sized, not rendered; ~8,400 now that headers are inline and a description
// parses in place), and the budget is 60 % of the old reading, so
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

// firstPassAllocBudget bounds the allocations per session of a world whose
// every template arrives about once: the pass the steady state above starts
// from, where bundles are built, not reused. While every template built a
// bundle of its own on its first arrival the 64-template world below read
// ~173 per session; with bundles leased per live session it builds one per
// session in flight (~40 % of the pool) and read ~132, the other
// first-time costs (hosts, paths, server sessions, grown scratch) included;
// ~116 (~121 under -race) once events and packets were carved in chunks and
// the world build stopped allocating per clip and per user, ~99 with one
// packet arena per shard, 87 (90 under -race) once RTSP messages were leased
// from that arena too, and 77 (80 under -race) since conns rebind a recycled
// packet handler, a dial lives in its conn and SETUP header values are
// rendered once. The budget sits ~1.15x above the -race reading.
const firstPassAllocBudget = 92

// TestFirstPassAllocBudget bounds what a session costs on a world's first
// pass over its templates (Arrivals == MaxUsers).
func TestFirstPassAllocBudget(t *testing.T) {
	w, err := NewWorld(Options{Seed: 31, MaxUsers: 64, ClipCap: 2, Workload: "poisson", Arrivals: 64})
	if err != nil {
		t.Fatal(err)
	}
	w.SetSink(trace.SinkFunc(func(*trace.Record) {}))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := w.Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perSession := float64(after.Mallocs-before.Mallocs) / float64(res.Sessions)
	t.Logf("first-pass allocations per session: %.0f over %d sessions (budget %d)", perSession, res.Sessions, firstPassAllocBudget)
	if perSession > firstPassAllocBudget {
		t.Errorf("a first pass over the templates allocates %.0f objects per session, budget %d — bundles are built per template again, not per session in flight",
			perSession, firstPassAllocBudget)
	}
}

// shardedSessionAllocBudget bounds the steady-state allocations per session
// under the sharded engine. On top of the classic per-session costs the
// sharded path buffers each record until the merge (the collector retains
// it, so its storage is never recycled), re-launches the fabric's worker
// goroutines per measured Run call, and pays queue-growth noise on the
// cross-shard outboxes — but the transit snapshots themselves are pooled,
// so the per-packet copy tax that once made a sharded session cost tens of
// thousands of allocations must stay gone. Measured steady state is 33, 33
// under -race, since conns rebind a recycled packet handler, a dial lives in
// its conn and SETUP header values are rendered once (48 while each conn
// bound a handler of its own, 60 while every RTSP message was allocated, 62
// while every server session and player had a packet arena of its own, ~69
// while transit copies regrew their lists and a recycled path built a new
// generator; ~101 before headers went inline and receivers were bound once,
// ~308 before the control plane stopped rendering what it only measures);
// the budget sits ~1.3x above it.
const shardedSessionAllocBudget = 43

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
	built := shardBundles(w, w.factories[0])
	for _, b := range built {
		if !b.done || !b.quiescent() {
			t.Fatalf("a bundle last bound to %s is still live after the run ended", w.Users[b.idx].Name)
		}
	}
	if len(built) == 0 || len(built) > len(w.Users) {
		t.Fatalf("%d bundles built for a %d-template pool", len(built), len(w.Users))
	}
	if res.Sessions <= len(built) {
		t.Fatalf("%d sessions over %d bundles; no bundle served more than one session", res.Sessions, len(built))
	}
}

// shardBundles returns every bundle shard factory f has built: the ones its
// templates hold and the idle ones.
func shardBundles(w *World, f *SessionFactory) []*sessionBundle {
	bs := slices.Clone(f.idle)
	for _, c := range w.open.cells {
		for _, b := range c.bundles {
			if b != nil && c.f == f {
				bs = append(bs, b)
			}
		}
	}
	return bs
}

// TestBundlesFollowConcurrency: a shard builds session machinery for the
// sessions it runs at once, not for the templates its cells have visited —
// on the churn world, whose sessions fill every template, and on a
// two-shard world at the calibrated ~40 % occupancy, whose round-robin
// cursors visit every template, the bundles a shard built are at most the
// shard's peak of busy templates; on the two-shard world that is fewer than
// its templates.
func TestBundlesFollowConcurrency(t *testing.T) {
	for _, opt := range []Options{
		churnOpts(),
		{Seed: 7, MaxUsers: 64, ClipCap: 2, Workload: "poisson", Arrivals: 160, Shards: 2},
	} {
		w, err := NewWorld(opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Run(); err != nil {
			t.Fatal(err)
		}
		for s, f := range w.factories {
			templates := 0
			for _, c := range w.open.cells {
				if c.f == f {
					templates += len(c.members)
				}
			}
			built := len(shardBundles(w, f))
			t.Logf("%d shards, shard %d: %d bundles built, peak %d busy of %d templates", opt.Shards, s, built, f.peak, templates)
			if built == 0 || built > f.peak || opt.Shards > 0 && built >= templates {
				t.Errorf("%d shards, shard %d: %d bundles built for a peak of %d busy templates out of %d",
					opt.Shards, s, built, f.peak, templates)
			}
		}
	}
}

// TestFabricAllocatesNoMoreThanClassic: a whole run of the open-loop fence
// world — build, run and merge — allocates no more objects per record on the
// sharded fabric at two shards than on the classic engine. The fabric's own
// state (transit copies, per-path streams and path rows, cross-shard
// teardown arms) is recycled or carved, so what it adds per record stays
// below what the classic engine spends elsewhere; one lane allocating per use
// again tips the balance (while transit copies regrew their lists and every
// path built its own generator, the fabric read 113.5 against 100.9).
//
// Each arm reads its fewest allocations over three runs: the runtime's own
// allocations (the parker's window hand-offs, which depend on timing) only
// ever add to a run's count, so the minimum is the world's.
func TestFabricAllocatesNoMoreThanClassic(t *testing.T) {
	perRecord := func(shards int) float64 {
		opt := fenceWorlds[1].opt
		opt.Shards = shards
		least := math.Inf(1)
		for range 3 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			res, err := Run(opt)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Records) == 0 {
				t.Fatalf("shards %d: the world produced no records", shards)
			}
			least = min(least, float64(after.Mallocs-before.Mallocs)/float64(len(res.Records)))
		}
		return least
	}
	classic, fabric := perRecord(0), perRecord(2)
	t.Logf("whole-run allocations per record: classic %.1f, fabric at 2 shards %.1f", classic, fabric)
	if fabric > classic {
		t.Errorf("the fabric allocates %.1f objects per record, more than the classic engine's %.1f", fabric, classic)
	}
}
