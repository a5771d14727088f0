package study

import (
	"fmt"
	"math"
	"time"

	"realtracer/internal/detrand"
	"realtracer/internal/simclock"
	"realtracer/internal/trace"
	"realtracer/internal/tracer"
	"realtracer/internal/transport"
	"realtracer/internal/workload"
)

// openLoop is the workload generator's run state: the arrival cells, each
// owning a disjoint slice of the template pool and a private arrival
// stream. A sharded world runs one cell per user block, pinned to the shard
// that owns the block's hosts, and relies on Poisson splitting to keep the
// aggregate arrival process identical in distribution; the classic world
// runs exactly one cell over the whole pool (buildCells).
type openLoop struct {
	cells []*arrivalCell
}

// cellTotals is the session accounting summed over the cells: what the
// run's termination condition and its Result read.
type cellTotals struct {
	arrivalsLeft, active, sessions, balked, departed int
}

func (o *openLoop) totals() (t cellTotals) {
	for _, c := range o.cells {
		t.arrivalsLeft += c.arrivalsLeft
		t.active += c.active
		t.sessions += c.sessions
		t.balked += c.balked
		t.departed += c.departed
	}
	return t
}

// arrivalCell is one arrival stream over a disjoint slice of the template
// pool: the (possibly split) arrival spec, the selection policy instance,
// the cell's private RNG, the occupancy of its members, and the session
// accounting the run's termination condition sums. A cell runs on one shard
// and reaches that shard's clock, network and record path through the
// shard's factory; everything a cell mutates at runtime belongs to its
// shard, so cells never race.
type arrivalCell struct {
	shard int             // the owning shard, an index into World.factories
	f     *SessionFactory // that shard's factory; f.w is the world
	ord   int             // cell ordinal in build order; partition-invariant
	spec  workload.Spec
	// policy is this cell's private selection-policy instance (stateful
	// policies like round-robin advance per cell); nil = pinned, no
	// per-clip selection step.
	policy workload.Policy
	// rng is the cell's private arrival/plan stream. The counting source
	// lets a checkpoint persist the stream position as (seed, draw count).
	rng *detrand.Rand

	// arrivalTimer is the armed next-arrival event, tracked so a restore
	// can re-arm it at its original (time, seq) slot.
	arrivalTimer simclock.Timer

	arrivalsLeft int
	active       int
	sessions     int
	balked       int
	departed     int

	members []int  // indices into World.Users this cell owns
	busy    []bool // template occupancy, indexed like members
	cursor  int    // round-robin template scan position

	// bundles are the per-template session machinery, built on a
	// template's first arrival and reused for every arrival after it —
	// the free-list behind the zero-allocation session lifecycle.
	bundles []*sessionBundle

	cands []workload.Candidate // per-pick scratch (single-owner state)
}

// sessionClipCycle is the nominal wall time one clip occupies: playout
// plus the inter-clip think/rating pause. Arrival-rate calibration and
// departure deadlines are placed in units of it.
func sessionClipCycle(opt Options) time.Duration {
	return opt.PlayFor + 8*time.Second
}

// resolveWorkloadSpec resolves the options into the full-pool workload
// spec, the selection-policy name, and the arrival-stream seed. The rate
// is calibrated so steady-state expected concurrency sits at ~40% of the
// template pool at 1x intensity: rate = 0.4·pool / E[session duration].
// Degenerate calibrations — an empty pool, a rate that is zero or
// infinite — are hard errors here, before the first NextGap draw could
// turn them into undefined float→int64 arithmetic.
func (w *World) resolveWorkloadSpec() (workload.Spec, string, int64, error) {
	opt := w.Options
	prof, ok := workload.ProfileByName(opt.Workload)
	if !ok {
		return workload.Spec{}, "", 0, fmt.Errorf("study: unknown workload profile %q", opt.Workload)
	}
	polName := opt.PolicyLabel()
	if _, ok := workload.PolicyByName(polName); !ok {
		return workload.Spec{}, "", 0, fmt.Errorf("study: unknown selection policy %q", polName)
	}
	pool := len(w.Users)
	if pool == 0 {
		return workload.Spec{}, "", 0, fmt.Errorf("study: open-loop workload needs a non-empty template pool")
	}

	k := opt.WorkloadIntensity
	if k == 0 {
		k = 1
	}
	meanClips := 4.0
	if opt.ClipCap > 0 && float64(opt.ClipCap) < meanClips {
		meanClips = float64(opt.ClipCap)
	}
	sessDur := time.Duration(meanClips * float64(sessionClipCycle(opt)))
	rate := k * 0.4 * float64(pool) / sessDur.Seconds()
	if !(rate > 0) || math.IsInf(rate, 1) {
		return workload.Spec{}, "", 0, fmt.Errorf("study: workload calibration produced a degenerate arrival rate %v (pool %d, intensity %g)", rate, pool, k)
	}
	horizon := time.Duration(float64(opt.Arrivals) / rate * float64(time.Second))
	spec := prof.Build(rate, horizon)
	spec.MaxClips = opt.ClipCap
	if !(spec.MaxRate > 0) || math.IsInf(spec.MaxRate, 1) {
		return workload.Spec{}, "", 0, fmt.Errorf("study: workload profile %q resolved a degenerate MaxRate %v", opt.Workload, spec.MaxRate)
	}

	seed := opt.WorkloadSeed
	if seed == 0 {
		seed = opt.Seed + 5
	}
	return spec, polName, seed, nil
}

// policyInstance builds a fresh selection-policy instance, mapping pinned
// (the identity selection) to nil so the per-clip probe is skipped.
func policyInstance(name string) workload.Policy {
	pol, _ := workload.PolicyByName(name)
	if _, pinned := pol.(workload.Pinned); pinned {
		return nil
	}
	return pol
}

// arriveArm is the pooled handler behind every arrival event: a
// pointer-conversion view of the cell, so sustaining the arrival train
// schedules nothing but recycled clock events.
type arriveArm arrivalCell

func (x *arriveArm) Fire(time.Duration) { (*arrivalCell)(x).arrive() }

// scheduleArrival draws the next inter-arrival gap and schedules the
// arrival; the generator sustains itself one event at a time instead of
// pre-scheduling the whole arrival train.
func (c *arrivalCell) scheduleArrival() {
	if c.arrivalsLeft <= 0 {
		return
	}
	gap := c.spec.NextGap(c.f.clock.Now(), c.rng.Rand)
	c.arrivalTimer = c.f.clock.AfterHandler(gap, (*arriveArm)(c))
}

// arrive admits one session: pick an idle member template (round-robin
// scan, so re-arrivals rotate through the cell), launch it, and schedule
// the next arrival. When every template is busy the arrival balks — the
// open population turned someone away.
func (c *arrivalCell) arrive() {
	c.arrivalsLeft--
	mi := -1
	for i := 0; i < len(c.busy); i++ {
		j := (c.cursor + i) % len(c.busy)
		if !c.busy[j] {
			mi = j
			break
		}
	}
	if mi < 0 {
		c.balked++
	} else {
		c.cursor = mi + 1
		c.launchSession(mi)
	}
	c.scheduleArrival()
}

// sessionBundle is one template's reusable session machinery: the tracer
// (with its player engine and packet arena), the transport stack the tracer
// was built on, the session RNG, and the plan/playlist scratch. It is built
// on the template's first arrival and leased — never rebuilt — on every
// arrival after that: the RNG is reseeded, the tracer Reset, and the scratch
// rewritten in place.
// finish and depart both converge on endSession exactly once: finish is
// the tracer walking off the end of its drawn playlist, depart is the
// mid-stream hangup that tears the host out from under in-flight packets.
type sessionBundle struct {
	cell *arrivalCell
	mi   int // index into cell.members/busy/bundles
	idx  int // index into World.Users

	rng      *detrand.Rand
	tr       *tracer.Tracer
	stack    *transport.Stack
	clips    []int          // NextPlanInto scratch, holds the drawn plan
	playlist []tracer.Entry // per-session playlist storage, reused

	departTimer simclock.Timer
	done        bool
	departed    bool

	// ordinal is the running session's arrival stamp: the owning cell's
	// ordinal in the high bits, the cell's launch count in the low. Both
	// are fixed before any shard assignment, so the stamp orders sessions
	// identically for every shard count — the total-order tiebreak the
	// sharded record merge needs when two records collide on every
	// observable sort key.
	ordinal int64

	// drops are the pooled cross-shard DropClient handlers, one per
	// server, built on the bundle's first sharded departure.
	drops []*dropArm
}

// departArm is the pooled handler for the mid-stream departure deadline.
type departArm sessionBundle

func (x *departArm) Fire(time.Duration) { (*sessionBundle)(x).depart() }

// newBundle builds a template's bundle on its first arrival. The bound
// method values and the selection closure here are the bundle's only
// closure allocations, paid once per template for the run's lifetime.
func (c *arrivalCell) newBundle(mi int, seed int64) *sessionBundle {
	w := c.f.w
	idx := c.members[mi]
	u := w.Users[idx]
	b := &sessionBundle{cell: c, mi: mi, idx: idx, rng: detrand.New(seed)}
	b.tr, b.stack = c.f.newTracer(u, b.rng.Rand, nil, c.selectFor(u.Name), b.onRecord, b.finish)
	return b
}

// launchSession draws the session plan (clip count, Zipf clip picks,
// abandonment) from the template's reseeded session RNG, attaches the
// template's host — a fresh incarnation if this template arrived before —
// and starts the tracer now. Reseeding the pooled RNG reproduces the
// exact draw stream a freshly-constructed RNG would give, so the records
// are byte-identical to the unpooled lifecycle's.
func (c *arrivalCell) launchSession(mi int) {
	w := c.f.w
	idx := c.members[mi]
	u := w.Users[idx]
	c.busy[mi] = true
	c.active++
	c.sessions++

	seed := c.rng.Int63()
	b := c.bundles[mi]
	if b == nil {
		b = c.newBundle(mi, seed)
		c.bundles[mi] = b
	} else {
		b.rng.Seed(seed)
	}
	b.done, b.departed = false, false
	b.ordinal = int64(c.ord)<<32 | int64(c.sessions)

	plan := c.spec.NextPlanInto(b.rng.Rand, len(w.Playlist), sessionClipCycle(w.Options), b.clips)
	b.clips = plan.Clips // keep the grown scratch for the next arrival
	b.playlist = b.playlist[:0]
	for _, ci := range plan.Clips {
		b.playlist = append(b.playlist, w.Playlist[ci])
	}
	c.f.attach(u, b.rng.Rand)
	b.tr.Reset(b.playlist)
	b.departTimer = simclock.Timer{}
	if plan.DepartAfter > 0 {
		b.departTimer = c.f.clock.AfterHandler(plan.DepartAfter, (*departArm)(b))
	}
	b.tr.Run()
}

// selectFor builds the per-clip selection hook for one session: probe
// every mirror (static RTT estimate plus the server's session count) and
// re-home the entry to the policy's pick. Nil under pinned. The classic
// engine probes the live ActiveSessions counter; a sharded cell reads its
// shard's gossip-delayed load view instead (gossip.go) — nil and so probed
// as 0 unless the policy is "leastloaded", the only one that reads load.
func (c *arrivalCell) selectFor(userName string) func(tracer.Entry) tracer.Entry {
	if c.policy == nil {
		return nil
	}
	w := c.f.w
	return func(e tracer.Entry) tracer.Entry {
		cands := c.cands[:0]
		for i, site := range w.ActiveSites {
			load := 0
			if w.fab == nil {
				load = w.Servers[i].ActiveSessions()
			} else if w.loads != nil {
				load = w.loads[c.shard][i]
			}
			cands = append(cands, workload.Candidate{
				Host: site.Host,
				Home: site.Host == e.Site.Host,
				RTT:  c.f.net.BaseRTT(userName, site.Host),
				Load: load,
			})
		}
		c.cands = cands // keep the grown scratch for the next pick
		pick := c.policy.Pick(userName, cands)
		site := w.ActiveSites[pick]
		if site.Host == e.Site.Host {
			return e
		}
		e.ControlAddr = replaceHost(e.ControlAddr, site.Host)
		e.Site = site
		return e
	}
}

// replaceHost swaps the host component of a "host:port" address. Every
// control address the study layer builds carries an explicit port; an
// address without one would silently re-home the session to a portless —
// undialable — string, so it is a bug in the caller, not an input.
func replaceHost(addr, host string) string {
	for i := len(addr) - 1; i >= 0; i-- {
		if addr[i] == ':' {
			return host + addr[i:]
		}
	}
	panic(fmt.Sprintf("study: control address %q has no port", addr))
}

// onRecord forwards a completed clip's record to the sink, unless the user
// already hung up — an abandoned session reports nothing after departure,
// like a real client that is simply gone.
func (b *sessionBundle) onRecord(rec *trace.Record) {
	if b.departed {
		return
	}
	rec.Ordinal = b.ordinal
	b.cell.f.observe(rec)
}

// finish is the tracer's natural end of session.
func (b *sessionBundle) finish() {
	if b.done {
		return
	}
	b.done = true
	b.departTimer.Cancel()
	b.cell.endSession(b)
}

// depart is the mid-stream hangup: stop the playlist walk, then tear the
// host out of the network with the clip still streaming. In-flight packets
// addressed to the host are dropped (and released back to the packet pool)
// by netsim; endSession reaps the orphaned server-side session — no
// TEARDOWN can ever arrive from a host that is gone. The tracer is then
// hard-stopped: once the host is removed every send from it drops at the
// source lookup before any RNG draw, so aborting the zombie player changes
// no record and no draw stream — it only stops the zombie from burning
// clock events until its PlayFor would have elapsed, and it is what lets
// the bundle be relaunched without a live predecessor still holding it.
func (b *sessionBundle) depart() {
	if b.done {
		return
	}
	b.done, b.departed = true, true
	b.tr.Stop()
	b.cell.departed++
	b.cell.endSession(b)
	b.tr.Abort()
}

// endSession removes the session's host, reaps any server-side session
// state the departed client left behind (an abandoned stream would
// otherwise pace at the dead address forever and permanently inflate the
// least-loaded policy's ActiveSessions probe), and frees the template for
// the next arrival under the same name.
//
// On the classic engine all of that is synchronous. A sharded cell owns
// only its own shard: the host is removed locally, but each server's
// DropClient is posted to the server's shard at now+L (the soonest a
// cross-shard message may land), and the template stays busy until now+2L.
// The delay makes the teardown race-free by timing alone: a re-arrival of
// the same template happens at T+2L or later, so its first packet reaches
// any server no earlier than T+3L — strictly after the T+L drop — and the
// drop can never reap the successor session's server-side state. All three
// timestamps are partition-invariant because L is computed from the route
// table, never from the partition.
func (c *arrivalCell) endSession(b *sessionBundle) {
	w := c.f.w
	name := w.Users[b.idx].Name
	c.f.net.RemoveHost(name)
	c.active--
	if w.fab == nil {
		for _, srv := range w.Servers {
			srv.DropClient(name)
		}
		c.busy[b.mi] = false
		return
	}
	now := c.f.clock.Now()
	L := w.fab.Lookahead()
	if b.drops == nil {
		b.drops = make([]*dropArm, 0, len(w.Servers))
		for _, srv := range w.Servers {
			b.drops = append(b.drops, &dropArm{srv: srv, name: name})
		}
	}
	for si, d := range b.drops {
		w.fab.Post(c.shard, w.siteShard(si), now+L, d)
	}
	c.f.clock.AfterHandler(2*L, (*freeArm)(b))
}

// freeArm is the pooled handler that returns a sharded template to the
// idle pool at departure+2L (see endSession).
type freeArm sessionBundle

func (x *freeArm) Fire(time.Duration) {
	b := (*sessionBundle)(x)
	b.cell.busy[b.mi] = false
}
