package study

import (
	"fmt"
	"math"
	"slices"
	"time"

	"realtracer/internal/detrand"
	"realtracer/internal/player"
	"realtracer/internal/simclock"
	"realtracer/internal/trace"
	"realtracer/internal/tracer"
	"realtracer/internal/transport"
	"realtracer/internal/workload"
)

// cellTotals is the session accounting summed over the cells: what Run's
// Result and its stall error report.
type cellTotals struct {
	arrivalsLeft, active, sessions, balked, departed int
}

func totals(cells []*arrivalCell) (t cellTotals) {
	for _, c := range cells {
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
// accounting Run reports. A sharded world runs one cell per user block,
// pinned to the shard that owns the block's hosts, and relies on Poisson
// splitting to keep the aggregate arrival process identical in
// distribution; the classic world runs exactly one cell over the whole pool
// (buildCells). The closed panel is a cell per user (panelCells): one
// member, one arrival at the user's start, no spec, policy or stream of its
// own. A cell runs on one shard and reaches that shard's clock, network and
// record path through the shard's factory; everything a cell mutates at
// runtime belongs to its shard, so cells never race.
type arrivalCell struct {
	shard int             // the owning shard, an index into World.factories
	f     *SessionFactory // that shard's factory; f.w is the world
	ord   int             // cell ordinal in build order; partition-invariant
	spec  workload.Spec
	// policy is this cell's private selection-policy instance (stateful
	// policies like round-robin advance per cell); nil = pinned, no
	// per-clip selection step.
	policy workload.Policy
	// rng is the cell's private arrival/plan stream, nil on a panel cell.
	// The counting source lets a checkpoint persist the stream position as
	// (seed, draw count).
	rng *detrand.Rand

	// arrivalTimer is the armed next-arrival event, tracked so a restore
	// can re-arm it at its original (time, seq) slot.
	arrivalTimer simclock.Timer

	// arrivalsLeft and active are the cell's share of its factory's pending
	// count: every change to either changes that by the same amount.
	arrivalsLeft int
	active       int
	sessions     int
	balked       int
	departed     int

	members []int  // indices into World.Users this cell owns
	busy    []bool // template occupancy, indexed like members
	cursor  int    // round-robin template scan position
	// ports counts the ephemeral ports each template's host has handed out,
	// for a template that holds no bundle; a held bundle's stack counts on.
	ports []int

	// bundles are the session machinery each template holds, indexed like
	// members: leased from the shard's factory when its session launches,
	// nil again once the template is free and the bundle quiescent.
	bundles []*sessionBundle

	cands []workload.Candidate // per-pick scratch (single-owner state)
}

// sessionClipCycle is the nominal wall time one clip occupies: the tracer's
// playout, one minute, plus the inter-clip think/rating pause. Arrival-rate
// calibration and departure deadlines are placed in units of it.
const sessionClipCycle = player.DefaultPlayFor + 8*time.Second

// resolveWorkloadSpec resolves the options into the full-pool workload
// spec and the selection-policy name. The rate
// is calibrated so steady-state expected concurrency sits at ~40% of the
// template pool at 1x intensity: rate = 0.4·pool / E[session duration].
// Degenerate calibrations — an empty pool, a rate that is zero or
// infinite — are hard errors here, before the first NextGap draw could
// turn them into undefined float→int64 arithmetic.
func (w *World) resolveWorkloadSpec() (workload.Spec, string, error) {
	opt := w.Options
	prof, ok := workload.ProfileByName(opt.Workload)
	if !ok {
		return workload.Spec{}, "", fmt.Errorf("study: unknown workload profile %q", opt.Workload)
	}
	polName := opt.PolicyLabel()
	if _, ok := workload.PolicyByName(polName); !ok {
		return workload.Spec{}, "", fmt.Errorf("study: unknown selection policy %q", polName)
	}
	pool := len(w.Users)
	if pool == 0 {
		return workload.Spec{}, "", fmt.Errorf("study: open-loop workload needs a non-empty template pool")
	}

	k := opt.WorkloadIntensity
	if k == 0 {
		k = 1
	}
	meanClips := 4.0
	if opt.ClipCap > 0 && float64(opt.ClipCap) < meanClips {
		meanClips = float64(opt.ClipCap)
	}
	sessDur := time.Duration(meanClips * float64(sessionClipCycle))
	rate := k * 0.4 * float64(pool) / sessDur.Seconds()
	if !(rate > 0) || math.IsInf(rate, 1) {
		return workload.Spec{}, "", fmt.Errorf("study: workload calibration produced a degenerate arrival rate %v (pool %d, intensity %g)", rate, pool, k)
	}
	horizon := time.Duration(float64(opt.Arrivals) / rate * float64(time.Second))
	spec := prof.Build(rate, horizon)
	spec.MaxClips = opt.ClipCap
	if !(spec.MaxRate > 0) || math.IsInf(spec.MaxRate, 1) {
		return workload.Spec{}, "", fmt.Errorf("study: workload profile %q resolved a degenerate MaxRate %v", opt.Workload, spec.MaxRate)
	}
	return spec, polName, nil
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

// panel reports whether c is a panel user's cell (panelCells).
func (c *arrivalCell) panel() bool { return !c.f.w.Options.OpenLoop() }

// arrive admits one session: pick an idle member template (round-robin
// scan, so re-arrivals rotate through the cell), launch it, and schedule
// the next arrival. When every template is busy the arrival balks — the
// open population turned someone away.
func (c *arrivalCell) arrive() {
	c.arrivalsLeft--
	c.f.pending--
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

// sessionBundle is one live session's machinery: the tracer (with its player
// engine and packet arena), the transport stack the tracer was built on, the
// session RNG, and the plan/playlist scratch. Open-loop bundles follow
// concurrency, not the template pool: a shard's factory builds one only when
// a launch finds none idle, and any template of the shard may lease it next.
// bind rewrites what names the template; the RNG is reseeded, the tracer
// Reset, and the scratch rewritten in place. A panel user's bundle is built
// with the world on the user's own stream, walks a prefix of the playlist
// (no plan), and stays bound to its cell.
// finish and depart both converge on endSession exactly once: finish is
// the tracer walking off the end of its drawn playlist, depart is the
// mid-stream hangup that tears the host out from under in-flight packets.
type sessionBundle struct {
	cell *arrivalCell // with mi, the template the bundle is bound to
	mi   int          // index into cell.members/busy/ports/bundles
	idx  int          // index into World.Users

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
	// server, carved together on the bundle's first sharded departure.
	drops []dropArm
}

// quiescent reports whether the bundle holds nothing the clock can reach: no
// dial in flight, no timer armed, its conns closed.
func (b *sessionBundle) quiescent() bool {
	return b.stack.DialsInFlight() == 0 && b.tr.Idle()
}

// bind binds b to template mi of cell c. Everything of a bundle that names
// its template is rewritten here or read through it: the stack's host, whose
// port counter goes on from the template's, and, through idx, the user of the
// rater, of the selection hook and of the drop arms — which a fabric's other
// shards read for the last time at +L of the previous session's end, a window
// before the bundle came free at +2L. Tracer.Reset installs the tracer's user
// at launch.
func (b *sessionBundle) bind(c *arrivalCell, mi int) {
	b.cell, b.mi, b.idx = c, mi, c.members[mi]
	b.stack.Rebind(c.f.w.Users[b.idx].Name, c.ports[mi])
	c.bundles[mi] = b
}

// settle frees a quiescent bundle from its template, keeping the template's
// port counter, and puts it on its factory's idle list. It reports whether
// the bundle was quiescent.
func (b *sessionBundle) settle() bool {
	if !b.quiescent() {
		return false
	}
	c := b.cell
	c.ports[b.mi] = b.stack.Ports()
	c.bundles[b.mi] = nil
	c.f.idle = append(c.f.idle, b)
	return true
}

// departArm is the pooled handler for the mid-stream departure deadline.
type departArm sessionBundle

func (x *departArm) Fire(time.Duration) { (*sessionBundle)(x).depart() }

// newBundle builds a bundle for template mi, bound to it, when the shard has
// none idle. The bound method values here are the bundle's only closure
// allocations, paid once for the run's lifetime.
func (c *arrivalCell) newBundle(mi int) *sessionBundle {
	b := &sessionBundle{rng: detrand.New(0)}
	b.tr, b.stack = c.f.newTracer(c.f.w.Users[c.members[mi]], b.rng.Rand, nil, b.rate, b.selectServer, b.onRecord, b.finish)
	b.bind(c, mi)
	return b
}

// launchSession starts template mi's session now. A panel user's was drawn,
// its host attached and its bundle bound when the world was built, so it
// only starts; it counts as no session in Result. An open-loop session draws
// its plan (clip count, Zipf clip picks, abandonment) from the session RNG,
// reseeded, and attaches the template's host — a fresh incarnation if this
// template arrived before. The template takes back a bundle it still holds
// (one freed before it was quiescent), or else leases one. Reseeding the
// pooled RNG reproduces the exact draw stream a freshly-constructed RNG would
// give, so the records are byte-identical to the unpooled lifecycle's.
func (c *arrivalCell) launchSession(mi int) {
	c.busy[mi] = true
	c.active++
	c.f.pending++
	c.f.live++
	c.f.peak = max(c.f.peak, c.f.live)
	b := c.bundles[mi]
	if c.panel() {
		b.tr.Run()
		return
	}
	w := c.f.w
	u := w.Users[c.members[mi]]
	c.sessions++

	if b != nil { // freed before it was quiescent: back off the draining list
		i := slices.Index(c.f.draining, b)
		c.f.draining = slices.Delete(c.f.draining, i, i+1)
	} else if b = c.f.lease(); b != nil {
		b.bind(c, mi)
	} else {
		b = c.newBundle(mi)
	}
	b.rng.Seed(c.rng.Int63())
	b.done, b.departed = false, false
	b.ordinal = int64(c.ord)<<32 | int64(c.sessions)

	plan := c.spec.NextPlanInto(b.rng.Rand, len(w.Playlist), sessionClipCycle, b.clips)
	b.clips = plan.Clips // keep the grown scratch for the next arrival
	b.playlist = b.playlist[:0]
	for _, ci := range plan.Clips {
		b.playlist = append(b.playlist, w.Playlist[ci])
	}
	c.f.attach(u, b.rng.Rand)
	b.tr.Reset(u, b.playlist)
	b.departTimer = simclock.Timer{}
	if plan.DepartAfter > 0 {
		b.departTimer = c.f.clock.AfterHandler(plan.DepartAfter, (*departArm)(b))
	}
	b.tr.Run()
}

// selectServer is a bundle's per-clip selection hook: probe every mirror
// (static RTT estimate plus the server's session count) and re-home the entry
// to the policy's pick for the bound template's user; under pinned, keep it.
// The classic engine probes the live ActiveSessions counter; a sharded cell
// reads its shard's gossip-delayed load view instead (gossip.go) — nil and so
// probed as 0 unless the policy is "leastloaded", the only one that reads
// load.
func (b *sessionBundle) selectServer(e tracer.Entry) tracer.Entry {
	c := b.cell
	if c.policy == nil {
		return e
	}
	w := c.f.w
	userName := w.Users[b.idx].Name
	cands := c.cands[:0]
	for i, site := range w.ActiveSites {
		load := 0
		if w.fab == nil {
			load = w.Servers[i].ActiveSessions()
		} else if w.loads != nil {
			load = w.loads[c.shard][i]
		}
		cands = append(cands, workload.Candidate{
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
	e.ControlAddr, e.Site = w.controlAddr(pick), site
	return e
}

// controlAddr is the control address of active site ai's server, as the
// static world rendered it: the playlist lists each active site's clips
// together, in site order, so the site's first entry carries it.
func (w *World) controlAddr(ai int) string {
	first := 0
	for _, site := range w.ActiveSites[:ai] {
		first += site.Clips
	}
	return w.Playlist[first].ControlAddr
}

// rate is the bound template's user rating a clip, on the session RNG.
func (b *sessionBundle) rate(rec *trace.Record) float64 {
	return (&rater{user: b.cell.f.w.Users[b.idx], rng: b.rng.Rand}).rate(rec)
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
// clock events until its playout would have elapsed, and it is what lets
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
// A panel user has no next arrival and tears nothing down: the host stays
// attached, as the paper's participants' machines did, no DropClient runs,
// and the bundle stays bound. Removing the host would make the network drop
// packets still addressed to it before any draw, which moves every later
// draw on the network's shared stream.
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
	c.active--
	c.f.pending--
	if c.panel() {
		c.busy[b.mi] = false
		c.f.live--
		return
	}
	w := c.f.w
	name := w.Users[b.idx].Name
	c.f.net.RemoveHost(name)
	if w.fab == nil {
		for _, srv := range w.Servers {
			srv.DropClient(name)
		}
		c.free(b)
		return
	}
	now := c.f.clock.Now()
	L := w.fab.Lookahead()
	if b.drops == nil {
		b.drops = make([]dropArm, len(w.Servers))
		for si, srv := range w.Servers {
			b.drops[si] = dropArm{srv: srv, b: b}
		}
	}
	for si := range b.drops {
		w.fab.Post(c.shard, w.siteShard(si), now+L, &b.drops[si])
	}
	c.f.clock.AfterHandler(2*L, (*freeArm)(b))
}

// free returns the template b serves to the idle pool and b to its factory.
func (c *arrivalCell) free(b *sessionBundle) {
	c.busy[b.mi] = false
	c.f.live--
	c.f.release(b)
}

// freeArm is the pooled handler that frees a sharded template at
// departure+2L (see endSession).
type freeArm sessionBundle

func (x *freeArm) Fire(time.Duration) {
	b := (*sessionBundle)(x)
	b.cell.free(b)
}
