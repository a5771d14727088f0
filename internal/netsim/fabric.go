// Sharded execution: one world, several cores.
//
// A Fabric partitions a world's hosts across N shards. Each shard owns a
// private simclock.Clock, event heap, packet pool and draw streams, and the
// shards execute in lock-step windows under classic conservative (CMB-style)
// synchronization: every window the fabric computes the global minimum
// next-event time T, and every shard runs its local events with timestamps in
// [T, T+L) in parallel, where the lookahead L is the minimum wide-area
// one-way propagation delay between any two hosts. A packet sent during such
// a window reaches the far edge of the WAN no earlier than now+L >= T+L, so
// nothing a shard does inside a window can schedule work for any shard —
// itself included — below the window's horizon. Cross-shard traffic becomes
// timestamped messages on per-pair outboxes, drained single-threaded between
// windows.
//
// Who runs what: the goroutine that calls Run is the control goroutine — it
// drains the outboxes, picks the horizon, keeps WindowStats — and it is also
// shard 0's executor, so a one-shard fabric is a plain single-threaded loop.
// Each further shard has a worker goroutine for the length of the Run. A
// window of this kind of world is tens of microseconds of work per shard,
// less than it costs to put a goroutine to sleep and wake it again, so the
// hand-off at the window boundary does not sleep: a worker waits for its
// next window by polling an atomic generation counter, the control goroutine
// waits for the workers by polling an atomic count of those still running,
// and either one parks only after a fixed spin budget (see spinBudget,
// barrier). A shard with no event below a window's horizon is not woken
// for it.
//
// Determinism contract: for a fixed seed, the output of a sharded world is
// byte-identical for every shard count. The mechanisms behind that guarantee:
//
//   - Interning is frozen before the clocks start, so HostIDs — and
//     everything keyed by them — are independent of the partition.
//   - Wide-area draws (loss, jitter, congestion innovations) come from
//     per-path streams seeded by the frozen endpoint IDs and consumed in the
//     source host's local event order, not from a global RNG whose
//     interleaving would depend on the partition.
//   - Payloads go through CopyPayload at the WAN edge, uniformly — even for
//     same-shard traffic — so the bytes a receiver observes are fixed at
//     send time and no shard ever reads memory another shard may still
//     mutate: a pooled payload (RTSP messages included) is snapshotted, an
//     immutable one in no pool (a data hello) crosses as itself. Snapshot
//     storage is leased from the source shard's transit pool and recycled
//     by the receiving shard (transit.go), so the copy semantics cost no
//     steady-state allocation; the original is released as soon as it has
//     been copied, on the shard that sent it.
//   - Packet delivery is split in two phases: the source shard runs the
//     uplink and wide-area stages (Send) and timestamps the packet's
//     WAN-edge arrival; the destination shard runs the same downlink stage
//     the classic engine runs at send time, but in its own event order at
//     that edge time (deliver).
//   - The window sequence itself is partition-invariant: T is the global
//     minimum over all shards, which is just the world's next event time.
package netsim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"realtracer/internal/simclock"
)

// shardMsg is one timestamped cross-shard message: either a packet at its
// WAN-edge arrival time or a control event (study-layer bookkeeping such as
// dropping a departed client's server-side session).
type shardMsg struct {
	at  time.Duration
	pkt *Packet
	h   simclock.EventHandler
}

// Fabric owns the shards of one world and runs the conservative window
// protocol across them. Build it single-threaded: NewFabric, then Intern /
// AddHost every host of the world into its shard, then Freeze, then (still
// single-threaded) register handlers and schedule initial events on the
// per-shard clocks, then Run.
type Fabric struct {
	nets   []*Network
	clocks []*simclock.Clock

	shardOf   []int32 // owner shard by HostID; -1 = unassigned
	lookahead time.Duration
	frozen    bool

	// out[src][dst] is the outbox for messages generated by shard src for
	// shard dst. Only shard src's executor appends during a window; only
	// the single-threaded control loop drains between windows (the barrier
	// orders the two).
	out [][][]shardMsg

	// stats is kept by the control goroutine between windows. The state of
	// the window hand-off itself is not here: it lives in a per-Run barrier.
	stats WindowStats
}

// NewFabric creates an N-shard fabric over a shared route table. Every shard
// gets its own clock and Network; seed parameterizes the world's wide-area
// draw streams exactly as it does for a classic netsim.New network, and the
// same seed produces the same world for every shard count.
func NewFabric(shards int, routes RouteTable, seed int64) *Fabric {
	if shards < 1 {
		panic("netsim: NewFabric needs at least one shard")
	}
	f := &Fabric{
		shardOf: make([]int32, 1), // HostID 0 is "unresolved"
		out:     make([][][]shardMsg, shards),
	}
	f.shardOf[0] = -1
	for i := 0; i < shards; i++ {
		c := simclock.New()
		n := New(c, routes, seed)
		n.fab, n.shardIdx, n.pathSeed = f, i, seed
		f.clocks = append(f.clocks, c)
		f.nets = append(f.nets, n)
		f.out[i] = make([][]shardMsg, shards)
	}
	return f
}

// NumShards returns the shard count.
func (f *Fabric) NumShards() int { return len(f.nets) }

// Net returns shard i's Network. Post-freeze all shards share the interning
// tables, so any of them resolves any host name; only the owning shard may
// send from, deliver to, or attach/detach a host.
func (f *Fabric) Net(i int) *Network { return f.nets[i] }

// Clock returns shard i's clock.
func (f *Fabric) Clock(i int) *simclock.Clock { return f.clocks[i] }

// Lookahead returns the frozen synchronization lookahead.
func (f *Fabric) Lookahead() time.Duration { return f.lookahead }

func (f *Fabric) checkShard(i int) {
	if i < 0 || i >= len(f.nets) {
		panic(fmt.Sprintf("netsim: shard %d out of range [0,%d)", i, len(f.nets)))
	}
}

// Intern assigns a host name to a shard and returns its permanent ID. All of
// a sharded world's names — including hosts that only attach later, such as
// pooled session templates — must be interned here before Freeze.
func (f *Fabric) Intern(shard int, name string) HostID {
	f.checkShard(shard)
	if f.frozen {
		panic("netsim: Fabric.Intern after Freeze")
	}
	id := f.nets[0].Intern(name)
	for int(id) >= len(f.shardOf) {
		f.shardOf = append(f.shardOf, -1)
	}
	if cur := f.shardOf[id]; cur >= 0 && cur != int32(shard) {
		panic("netsim: host " + name + " reassigned to a different shard")
	}
	f.shardOf[id] = int32(shard)
	return id
}

// AddHost interns cfg.Name into the shard and attaches the host. Hosts that
// attach only at runtime (after Freeze) are interned here and attached later
// through the owning shard's Network.
func (f *Fabric) AddHost(shard int, cfg HostConfig) {
	f.Intern(shard, cfg.Name)
	f.nets[0].AddHost(cfg)
}

// Freeze closes interning and shares the frozen tables across all shards.
// lookahead is the synchronization window: it must be a lower bound on the
// wide-area one-way delay between every pair of hosts (the caller computes
// it from its route table), and it must be the same value for every shard
// count or downstream timestamps would depend on the partition.
func (f *Fabric) Freeze(lookahead time.Duration) {
	if f.frozen {
		panic("netsim: Fabric.Freeze called twice")
	}
	if lookahead <= 0 {
		panic("netsim: Fabric lookahead must be positive")
	}
	b := f.nets[0]
	if b.dyn != nil {
		panic("netsim: install dynamics on a sharded world via Fabric.SetDynamics, after Freeze")
	}
	for id := 1; id < len(b.hostTab); id++ {
		if f.shardOf[id] < 0 {
			panic("netsim: host " + b.names[id] + " was interned outside the fabric")
		}
	}
	// Interning is closed from here on, so the tables indexed by HostID —
	// the path rows' outer slice among them — are at their final size and no
	// shard ever reallocates a shared backing array at runtime. A row itself
	// grows, but only under Send from its source host: on one shard.
	f.lookahead = lookahead
	for _, n := range f.nets {
		n.ids, n.names, n.hostTab, n.rows = b.ids, b.names, b.hostTab, b.rows
		n.frozen = true
	}
	f.frozen = true
}

// SetDynamics installs one dynamics schedule across every shard of a
// frozen fabric. The compiled schedule is shared read-only: each shard
// advances per-path dynamics state (event matches, Gilbert–Elliott chains)
// only for paths whose source host it owns, and every random draw the layer
// makes in sharded mode comes from the path's private stream — consumed in
// source-shard event order, which is partition-invariant — so a dynamic
// sharded world keeps the byte-identical-for-every-N contract. (The
// schedule's draw streams differ from the classic engine's dedicated
// dynamics RNG, exactly as the base network's per-path streams differ from
// the classic global one.) Call between Freeze and Run, before traffic.
func (f *Fabric) SetDynamics(spec *Dynamics, seed int64) {
	if !f.frozen {
		panic("netsim: Fabric.SetDynamics before Freeze")
	}
	// Compile once against the frozen name table; the path rows (and so
	// every path's dynamics state) are shared, so the base network's reset
	// covers all shards.
	b := f.nets[0]
	b.SetDynamics(spec, seed)
	for _, n := range f.nets[1:] {
		n.dyn = b.dyn
	}
}

// forward is what Send does in a sharded world instead of the downlink
// stage: it hands a packet that reaches the far edge of the wide area at at
// — at least OneWayDelay, and therefore at least the lookahead, after now,
// so at or beyond the window horizon — to the shard that owns its
// destination, which runs the downlink at that time in its own event order.
// The payload is snapshotted here if a pool recycles it (value semantics at
// the wire, like real serialization), uniformly, so no shard ever reads
// memory another shard may still mutate and a send's observable content is
// fixed at send time for every shard count. Snapshot storage is leased from
// this shard's transit pool and recycled by the receiving side (transit.go).
// The network's lease on the original ends here, on the shard that sent it:
// a pooled original never crosses a thread.
func (n *Network) forward(at time.Duration, pkt *Packet) {
	orig := pkt.Payload
	pkt.Payload = CopyPayload(&n.transit, orig)
	ReleaseTransit(&n.transit, orig)
	pkt.edge = true
	f, dst := n.fab, -1
	if int(pkt.ToID) < len(f.shardOf) {
		dst = int(f.shardOf[pkt.ToID])
	}
	switch dst {
	case -1:
		// Unknown destination name: nobody owns it, nobody can deliver it.
		n.drop(pkt)
	case n.shardIdx:
		pkt.net = n
		n.Clock.AtHandler(at, pkt)
	default:
		f.out[n.shardIdx][dst] = append(f.out[n.shardIdx][dst], shardMsg{at: at, pkt: pkt})
	}
}

// Post schedules a control event on shard dst's clock at time at, from code
// running on shard src. Like packets, control messages must respect the
// lookahead: at must be at least src's now + Lookahead, so the event cannot
// land below a horizon the destination shard is already executing.
func (f *Fabric) Post(src, dst int, at time.Duration, h simclock.EventHandler) {
	f.checkShard(src)
	f.checkShard(dst)
	if min := f.clocks[src].Now() + f.lookahead; at < min {
		panic(fmt.Sprintf("netsim: Fabric.Post at %v violates lookahead (now %v + %v)",
			at, f.clocks[src].Now(), f.lookahead))
	}
	if dst == src {
		f.clocks[src].AtHandler(at, h)
		return
	}
	f.out[src][dst] = append(f.out[src][dst], shardMsg{at: at, h: h})
}

// outboxRetainCap bounds the backing array an outbox keeps between
// windows. A flash-crowd window can queue thousands of cross-shard
// messages at once; retaining that high-water array for the rest of the
// run would pin the burst's peak in memory forever, so oversized outboxes
// are cut back here and regrow if another burst needs them.
const outboxRetainCap = 256

// drain moves every outbox message onto its destination shard's clock.
// Single-threaded: runs only between windows. Outboxes are visited in fixed
// (src, dst) order so insertion order — the tiebreak for equal timestamps —
// is deterministic.
func (f *Fabric) drain() {
	for src := range f.out {
		for dst := range f.out[src] {
			box := f.out[src][dst]
			if len(box) == 0 {
				continue
			}
			n := f.nets[dst]
			for i := range box {
				m := &box[i]
				if m.pkt != nil {
					m.pkt.net = n
					n.Clock.AtHandler(m.at, m.pkt)
				} else {
					n.Clock.AtHandler(m.at, m.h)
				}
				*m = shardMsg{}
			}
			if cap(box) > outboxRetainCap {
				f.out[src][dst] = nil
			} else {
				f.out[src][dst] = box[:0]
			}
		}
	}
	f.rebalancePools()
}

// poolBalanceSlack is the free-list length difference between the richest
// and poorest shard below which rebalancePools leaves a class alone.
const poolBalanceSlack = 64

// rebalancePools evens the shards' packet and transit free-lists out
// between windows. Pooled objects migrate with the traffic — leased on the
// sending shard, released on the receiving one — so a one-directional flow
// (a server shard streaming to a client shard) would otherwise starve the
// sender's pools into allocating every packet fresh while the receiver's
// pile up. Runs single-threaded between windows, when the control loop may
// touch every shard's state; moving objects across pools cannot affect
// results, only who allocates.
func (f *Fabric) rebalancePools() {
	if len(f.nets) < 2 {
		return
	}
	evenOut(f.nets, func(n *Network) *[]*Packet { return &n.free })
	for c := range TransitClass(numTransitClasses) {
		evenOut(f.nets, func(n *Network) *[]any { return n.transit.class(c) })
	}
}

// evenOut is one rebalancing move over the free-list list(n) of every
// shard: when the richest holds more than poolBalanceSlack over the poorest,
// it gives the poorest half the difference.
func evenOut[T any](nets []*Network, list func(*Network) *[]T) {
	rich, poor := list(nets[0]), list(nets[0])
	for _, n := range nets[1:] {
		if l := list(n); len(*l) > len(*rich) {
			rich = l
		} else if len(*l) < len(*poor) {
			poor = l
		}
	}
	if len(*rich)-len(*poor) <= poolBalanceSlack {
		return
	}
	cut := len(*rich) - (len(*rich)-len(*poor))/2
	*poor = append(*poor, (*rich)[cut:]...)
	clear((*rich)[cut:])
	*rich = (*rich)[:cut]
}

// Run executes the window protocol until every shard's heap and every outbox
// is empty, or until stop (checked once per window, between windows, with
// all shards quiescent) returns true. stop may be nil.
//
// The calling goroutine is the control goroutine and also shard 0's
// executor: each window it releases the other shards' workers, runs shard
// 0's events itself, and then waits for the workers. A one-shard fabric
// therefore starts no goroutine and crosses no barrier — Run is a plain loop
// over drain and RunBefore. A shard with no event below a window's horizon
// is not released for it: RunBefore would fire nothing and leave the
// shard's Now where it was, so letting its worker sleep is invisible to the
// simulation.
//
// Run may be called again on the same fabric (after a stop, or once new
// events have been scheduled). The workers and everything they wait on
// belong to one call (see barrier), and every worker has exited before Run
// returns or panics.
//
// A panic inside a shard's event does not tear the window: it is caught on
// the goroutine that ran the shard, the other shards finish the window, and
// Run then panics on the calling goroutine with a ShardPanic for the
// lowest-numbered shard that failed.
func (f *Fabric) Run(stop func() bool) {
	if !f.frozen {
		panic("netsim: Fabric.Run before Freeze")
	}
	b := f.newBarrier()
	defer b.close()
	b.run(stop)
}

// ShardPanic is what Run panics with when a shard's event panicked: the
// shard, the event's own panic value, and the stack of the goroutine that
// was running the shard, captured before it unwound.
type ShardPanic struct {
	Shard int
	Value any
	Stack []byte
}

func (p ShardPanic) Error() string {
	return fmt.Sprintf("netsim: shard %d panicked: %v\n\n%s", p.Shard, p.Value, p.Stack)
}

func (p ShardPanic) String() string { return p.Error() }

// runWindow runs shard i's events below h and returns the panic that cut
// the window short, if one did.
func (f *Fabric) runWindow(i int, h time.Duration) (failed *ShardPanic) {
	defer func() {
		if v := recover(); v != nil {
			failed = &ShardPanic{Shard: i, Value: v, Stack: debug.Stack()}
		}
	}()
	f.clocks[i].RunBefore(h)
	return nil
}

// spinBudget is how many times a waiter polls before it parks on a channel;
// on the way it yields the processor (runtime.Gosched) every spinYield
// polls. It is a constant and not a knob because no property of a world
// changes what it should be, and being wrong either way is cheap. Measured
// on the 2-vCPU build box with the sharded2 benchmark world (25,228 windows
// of ~110 events): one shard's share of a window is ~50 µs of work, and
// waking a parked goroutine costs ~36 µs (runtime.futex) — which every
// window paid twice per shard while the hand-off was a pair of unbuffered
// channels, more than the window's own work. The budget is ~200 µs of
// polling there, four windows' worth: long enough that a worker whose peers
// are merely busier than it is almost never parks (a few dozen of that
// world's 25,228 windows find it parked); short enough that a shard with
// nothing to do for a stretch, or one whose thread a runnable goroutine
// wants (the yields let it in), stops burning a core and falls back to the
// blocking hand-off.
const (
	spinBudget = 1 << 17
	spinYield  = 256
)

// parker is the waiting half of one hand-off. The waiter polls an atomic
// word for a value and blocks on wake only once the spin budget is spent;
// whoever changes the word calls unpark afterwards, which costs one atomic
// load unless the waiter really is blocked. One waiter per parker.
//
// An unpark is not tied to the store it follows: the writer's thread can be
// descheduled between the two for longer than the spin budget, by which time
// the waiter has seen the store by polling, gone round, and parked on its
// next wait. The late unpark then wakes that wait. So a wake-up is a hint to
// look again and never the answer: await returns only on having read want.
type parker struct {
	parked atomic.Bool
	wake   chan struct{} // capacity 1: unpark never blocks
}

func newParker() parker { return parker{wake: make(chan struct{}, 1)} }

// await returns once it has read want from w.
func (p *parker) await(w *atomic.Int32, want int32) {
	for i := 1; i <= spinBudget; i++ {
		if w.Load() == want {
			return
		}
		if i%spinYield == 0 {
			runtime.Gosched()
		}
	}
	for {
		// Announce, then look once more. A writer that stored before it
		// could see parked does not send, so this look is what catches its
		// store. Whoever does see parked takes the flag and sends: exactly
		// one send per flag taken, and the waiter receives it before it
		// raises the flag again, so the channel never holds more than one
		// token and is empty whenever await returns.
		p.parked.Store(true)
		if w.Load() == want {
			if !p.parked.CompareAndSwap(true, false) {
				<-p.wake
			}
			return
		}
		<-p.wake
		if w.Load() == want {
			return
		}
	}
}

// unpark wakes the waiter if it has parked and reports whether it had.
// Call it after the store the waiter is waiting for.
func (p *parker) unpark() bool {
	if p.parked.Load() && p.parked.CompareAndSwap(true, false) {
		p.wake <- struct{}{}
		return true
	}
	return false
}

// worker is the barrier's state for one shard other than shard 0, padded so
// that two workers polling their own gen do not share a cache line.
type worker struct {
	parker
	gen    atomic.Int32 // windows released to this worker so far (wraps)
	failed *ShardPanic  // its last window's panic; read once pending drains
	_      [64]byte
}

// barrier is the hand-off state of one Run call. The control goroutine
// releases a window to shard i by bumping workers[i-1].gen; each released
// worker runs its shard to the horizon published with the bump and reports
// by decrementing pending; the control goroutine, having run shard 0
// meanwhile, waits for pending to reach zero. Both waits poll before they
// park (parker.await), so with a core per shard a window crosses no futex.
//
// This state is per Run, not on the Fabric, because Run is re-entered on
// one fabric: a worker of the previous call that has been told to quit but
// has not looked yet would read the next call's generation and quit flag,
// and either run a window nobody released to it or exit from under a call
// that counts on it. With a fresh barrier per call a worker can only ever
// see the call that started it.
type barrier struct {
	f       *Fabric
	next    []time.Duration // per shard: NextAt ahead of this window, -1 = none
	fired   []uint64        // per shard: Clock.Fired after the last window
	horizon time.Duration   // of the window being released; written before any gen moves
	quit    atomic.Bool     // set before the last gen bump
	workers []worker        // workers[i-1] executes shard i
	pending atomic.Int32    // released workers still inside the window
	ctl     parker          // the control goroutine, waiting on pending
	exited  sync.WaitGroup
}

func (f *Fabric) newBarrier() *barrier {
	b := &barrier{
		f:       f,
		next:    make([]time.Duration, len(f.nets)),
		fired:   make([]uint64, len(f.nets)),
		workers: make([]worker, len(f.nets)-1),
		ctl:     newParker(),
	}
	for i, c := range f.clocks {
		b.fired[i] = c.Fired()
	}
	b.exited.Add(len(b.workers))
	for i := range b.workers {
		b.workers[i].parker = newParker()
		go b.work(i + 1)
	}
	return b
}

// close tells every worker to exit and waits until each has, so no
// goroutine of a Run outlives it, whether it returns or panics.
func (b *barrier) close() {
	b.quit.Store(true)
	for i := range b.workers {
		b.workers[i].release()
	}
	b.exited.Wait()
}

// release moves the worker's generation, wakes it if it had parked, and
// reports whether it had.
func (w *worker) release() (wasParked bool) {
	w.gen.Add(1)
	return w.unpark()
}

// run is the window loop of one Run call.
func (b *barrier) run(stop func() bool) {
	f := b.f
	for {
		f.drain()
		if stop != nil && stop() {
			return
		}
		tmin := time.Duration(-1)
		for i, c := range f.clocks {
			t, ok := c.NextAt()
			if !ok {
				t = -1
			} else if tmin < 0 || t < tmin {
				tmin = t
			}
			b.next[i] = t
		}
		if tmin < 0 {
			return
		}
		b.window(tmin + f.lookahead)
	}
}

// work is shard i's executor goroutine for one Run: wait for the next
// generation, run the shard to the horizon, report, repeat until quit.
func (b *barrier) work(i int) {
	defer b.exited.Done()
	w := &b.workers[i-1]
	for gen := int32(1); ; gen++ {
		w.await(&w.gen, gen)
		if b.quit.Load() {
			return
		}
		w.failed = b.f.runWindow(i, b.horizon)
		if b.pending.Add(-1) == 0 {
			b.ctl.unpark()
		}
	}
}

// due reports whether shard i has an event below the current horizon.
func (b *barrier) due(i int) bool {
	return b.next[i] >= 0 && b.next[i] < b.horizon
}

// window runs every shard that has an event below h up to h — shard 0 on
// the calling goroutine — and returns once all of them are quiescent again.
// It keeps the fabric's WindowStats and re-raises a shard's panic.
func (b *barrier) window(h time.Duration) {
	f, st := b.f, &b.f.stats
	b.horizon = h
	for i := 1; i < len(b.next); i++ {
		if b.due(i) {
			// Counted before it is released, so pending cannot be read
			// as zero while a released worker is still running. (It may
			// touch zero between two releases; nobody is waiting yet.)
			b.pending.Add(1)
			if b.workers[i-1].release() {
				st.ParkedWakes++
			}
		}
	}
	var failed *ShardPanic
	if b.due(0) {
		failed = f.runWindow(0, h)
	}
	b.ctl.await(&b.pending, 0)

	var total, busiest uint64
	for i, c := range f.clocks {
		if !b.due(i) {
			st.Skipped++
			continue
		}
		d := c.Fired() - b.fired[i]
		b.fired[i] += d
		total += d
		if d > busiest {
			busiest = d
		}
	}
	st.Windows++
	st.Fired += total
	st.Critical += busiest
	if busiest == total {
		st.Solo++
	}

	for i := 0; failed == nil && i < len(b.workers); i++ {
		failed = b.workers[i].failed
	}
	if failed != nil {
		panic(*failed)
	}
}

// WindowStats counts what the window protocol did, cumulatively over every
// Run of a fabric. The control goroutine keeps the counts between windows,
// so they cost the shards nothing and reading them changes nothing. All but
// ParkedWakes are exact functions of the world and its seed (and, for
// Critical, Solo and Skipped, of the shard count); ParkedWakes depends on
// the host's scheduling.
type WindowStats struct {
	// Windows is the number of windows run.
	Windows uint64
	// Fired is the number of events executed inside windows.
	Fired uint64
	// Critical sums, over windows, the events executed by the window's
	// busiest shard: the events on the critical path. Fired/Critical is the
	// speedup the partition allows if waiting were free; with one shard the
	// two are equal.
	Critical uint64
	// Solo counts windows in which a single shard had all the events.
	Solo uint64
	// Skipped counts shard-windows not run because the shard had no event
	// below the horizon.
	Skipped uint64
	// ParkedWakes counts window releases that found the worker parked
	// rather than polling, and so paid a scheduler wake-up.
	ParkedWakes uint64
}

// WindowStats returns the fabric's window counters. Call it from the
// goroutine that calls Run, between runs.
func (f *Fabric) WindowStats() WindowStats { return f.stats }

// String prints the counts on one line, the critical path as its share of
// the events and as the speedup ceiling that share implies.
func (s WindowStats) String() string {
	share := 1.0
	if s.Fired > 0 {
		share = float64(s.Critical) / float64(s.Fired)
	}
	return fmt.Sprintf("windows=%d critical=%.1f%% (ceiling %.2fx) solo=%d skipped=%d parked-wakes=%d",
		s.Windows, 100*share, 1/share, s.Solo, s.Skipped, s.ParkedWakes)
}

// Stats sums the per-shard packet counters.
func (f *Fabric) Stats() (sent, delivered, dropped uint64) {
	for _, n := range f.nets {
		s, d, dr := n.Stats()
		sent += s
		delivered += d
		dropped += dr
	}
	return
}

// Fired sums the per-shard executed-event counters.
func (f *Fabric) Fired() uint64 {
	var total uint64
	for _, c := range f.clocks {
		total += c.Fired()
	}
	return total
}
