// Package simclock provides a deterministic discrete-event virtual clock.
//
// All time in the simulated study flows through a Clock: components schedule
// callbacks at absolute virtual times and the scheduler runs them in
// timestamp order (FIFO among equal timestamps). Nothing ever sleeps on the
// wall clock, which makes an 11-day measurement study reproducible in
// milliseconds of real time.
//
// There is one kind of event: an EventHandler — a reusable object with a
// Fire method — scheduled on a pooled Event. Events live on a free-list and
// are recycled after they fire or are reaped, so steady-state scheduling
// allocates nothing, and because a handler is a typed object rather than a
// closure, every pending event can be written into a world checkpoint by the
// object that owns it and re-armed from one (checkpoint.go).
//
// The pending-event queue is one ring of 131µs tick slots spanning ~4.29s,
// with a far heap behind it for later events: insertion and re-arm are O(1)
// slot appends instead of heap sifts, and exact (At, seq) order is restored
// by moving one tick at a time into a small "near" heap. Each event is filed
// once and moved once; nothing cascades. The ring is the only scheduler
// compiled into the package; its reference semantics live in
// differential_test.go as an independent model, and TestWheelMatchesHeap
// replays random arm/cancel/re-arm/Step traces through both and requires
// identical firing sequences. Firing order is part of the determinism
// contract.
package simclock

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// EventHandler is what the clock schedules: components implement Fire once
// and schedule themselves (or a reusable sub-object) with
// AtHandler/AfterHandler, so nothing is captured per event.
type EventHandler interface {
	// Fire runs the event's action at virtual time now.
	Fire(now time.Duration)
}

// Event is a scheduled handler. Events fire in (At, seq) order so that two
// events scheduled for the same instant run in scheduling order.
//
// Events come from the clock's free-list and are returned to it after firing
// or reaping; the generation-checked Timer handle is the only way to cancel
// one.
type Event struct {
	At  time.Duration // virtual time at which the event fires
	h   EventHandler
	nxt *Event // intrusive link while chained on a ring slot
	clk *Clock // owning clock while scheduled and live; nil once fired/reaped
	seq uint64
	gen uint32 // incremented on every recycle; Timer handles check it
	off bool   // cancelled
}

// Timer is a cancellable handle to a scheduled event. It carries the
// event's generation at scheduling time, so a stale handle — one whose event
// has already fired and been recycled for a different purpose — cancels
// nothing. The zero Timer is inert.
type Timer struct {
	e   *Event
	gen uint32
}

// Cancel prevents the event from firing, if this handle still refers to the
// live generation. Cancelling a fired, reaped, cancelled or zero Timer is a
// no-op.
func (t Timer) Cancel() {
	e := t.e
	if e == nil || e.gen != t.gen || e.off {
		return
	}
	e.off = true
	if e.clk != nil {
		// Still scheduled: it leaves the live count now and is reaped from
		// whichever queue structure holds it when the scheduler next touches
		// that slot.
		e.clk.live--
		e.clk = nil
	}
}

// Active reports whether the handle still refers to a scheduled, uncancelled
// event.
func (t Timer) Active() bool {
	return t.e != nil && t.e.gen == t.gen && !t.e.off
}

// Ring geometry. A tick is 2^wheelTickBits ns (~131µs); the ring holds the
// ringSlots ticks from nearEnd's (2^32 ns, ~4.29s), so a slot only ever
// chains events of one tick, and later events wait in the far heap. The span
// is sized from the delays the study schedules: of every AtHandler delay at
// seed 1, beyond 2^12 ticks (537 ms) lie 15.6 % on the full panel and 15.3 %,
// 15.3 % and 9.1 % on the poisson1k, storm2x and sharded2 worlds; beyond
// 2^15 ticks, 0.18 %, 0.34 %, 0.44 % and 0.20 %. 2^15 slots are 256 KiB of
// pointers per Clock.
const (
	wheelTickBits = 17
	ringBits      = 15
	ringSlots     = 1 << ringBits
	ringMask      = ringSlots - 1
)

// Clock is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; the simulation is deliberately sequential so that runs are
// bit-for-bit reproducible.
type Clock struct {
	now   time.Duration
	seq   uint64
	fired uint64
	live  int      // scheduled, uncancelled, not-yet-fired events
	free  []*Event // recycled events
	// firing holds the event currently executing its handler: if the
	// handler re-arms (the recurring-timer pattern: pace ticks, switch
	// checks, RTO, gossip), the schedule reuses this slot directly instead
	// of a free-list release/obtain round-trip.
	firing *Event
	// owned lists the events an encoding walk has persisted so far, for
	// CheckOwned (checkpoint.go); nil outside a walk.
	owned []*Event

	// Event queue. Exact order comes from the near heap, which holds exactly
	// the events with At < nearEnd; everything else is at or beyond nearEnd,
	// so strictly later than every near event: on the ring slot of its tick
	// when that tick was within ringSlots of nearEnd's as it was filed, in
	// the far heap otherwise.
	near    []*Event      // 4-ary min-heap of events with At < nearEnd
	nearEnd time.Duration // tick-aligned
	ring    [ringSlots]*Event
	occ     [ringSlots / 64]uint64   // ring slot occupancy
	occSum  [ringSlots / 4096]uint64 // nonzero words of occ
	ringN   int                      // events chained on the ring, tombstones included
	far     []*Event                 // 4-ary min-heap of events beyond the ring's span
}

// New returns a Clock positioned at virtual time zero with no pending
// events.
func New() *Clock { return &Clock{} }

// Now returns the current virtual time as an offset from the start of the
// simulation.
func (c *Clock) Now() time.Duration { return c.now }

// Fired returns the number of events executed so far (useful for tests and
// for detecting runaway simulations).
func (c *Clock) Fired() uint64 { return c.fired }

// Pending returns the number of scheduled, not-yet-fired live events.
// Cancelled events leave the count at Cancel time, even though their
// tombstones are reaped from the queue structures lazily.
func (c *Clock) Pending() int { return c.live }

// FreeListLen reports the size of the event free-list, for pool tests.
func (c *Clock) FreeListLen() int { return len(c.free) }

// AtHandler schedules h.Fire at absolute virtual time t (clamped to now, so
// an event never fires before Now). The event comes from the re-arm slot or
// the free-list and is recycled after it fires or is reaped, so steady-state
// scheduling allocates nothing. The returned Timer is the only way to cancel
// it.
func (c *Clock) AtHandler(t time.Duration, h EventHandler) Timer {
	if h == nil {
		panic("simclock: AtHandler called with nil handler")
	}
	if t < c.now {
		t = c.now
	}
	var e *Event
	if c.firing != nil {
		e = c.firing
		c.firing = nil
	} else {
		e = c.obtain()
	}
	e.At = t
	e.h = h
	e.clk = c
	e.seq = c.seq
	e.off = false
	c.seq++
	c.live++
	c.wheelAdd(e)
	return Timer{e: e, gen: e.gen}
}

// obtain draws an event from the free-list.
func (c *Clock) obtain() *Event {
	if k := len(c.free); k > 0 {
		e := c.free[k-1]
		c.free = c.free[:k-1]
		return e
	}
	return &Event{}
}

// release retires a reaped event to the free-list with its generation
// bumped, so stale Timer handles become inert.
func (c *Clock) release(e *Event) {
	e.clk = nil
	e.nxt = nil
	e.gen++
	e.h = nil
	c.free = append(c.free, e)
}

// AfterHandler schedules h.Fire d after the current virtual time. Negative
// durations are clamped to zero. Re-arming from inside Fire is the O(1) fast
// path: the just-fired event slot is reused in place.
func (c *Clock) AfterHandler(d time.Duration, h EventHandler) Timer {
	if d < 0 {
		d = 0
	}
	return c.AtHandler(c.now+d, h)
}

// peek returns the earliest pending live event without removing it, reaping
// cancelled tombstones on the way, or nil when nothing live is pending.
// Inlinable fast path: a live near-heap top is the global minimum (ring and
// far events are at or beyond nearEnd), so the per-event common case never
// leaves the caller's frame.
func (c *Clock) peek() *Event {
	if len(c.near) > 0 && !c.near[0].off {
		return c.near[0]
	}
	return c.wheelPeek()
}

// popNext removes and returns the earliest pending live event, or nil when
// nothing live is pending. It is peek and the removal fused into one call:
// Step runs once per event, and the extra call layer plus the re-load of the
// near top showed up in the packet-hop profile.
func (c *Clock) popNext() *Event {
	if len(c.near) > 0 && !c.near[0].off {
		return popEvent(&c.near)
	}
	if c.wheelPeek() == nil {
		return nil
	}
	return popEvent(&c.near)
}

// Step runs the single next pending event, advancing the clock to its
// timestamp. It returns false when no events remain.
func (c *Clock) Step() bool {
	e := c.popNext()
	if e == nil {
		return false
	}
	if e.At < c.now {
		panic(fmt.Sprintf("simclock: time went backwards: %v < %v", e.At, c.now))
	}
	c.now = e.At
	c.fired++
	c.live--
	e.clk = nil
	// Bump the generation before running: any Timer held for this event is
	// already stale by the time user code runs again. The slot parks in
	// c.firing so an immediate re-arm reuses it without touching the
	// free-list; if the handler does not re-arm, it is flushed there.
	h := e.h
	e.gen++
	e.h, e.nxt = nil, nil
	c.firing = e
	h.Fire(c.now)
	if c.firing == e {
		c.firing = nil
		c.free = append(c.free, e)
	}
	return true
}

// Run executes events until the queue is empty.
func (c *Clock) Run() {
	for c.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// exactly t. Events scheduled during execution are honored if they land
// within the horizon.
func (c *Clock) RunUntil(t time.Duration) {
	for {
		e := c.peek()
		if e == nil || e.At > t {
			break
		}
		c.Step()
	}
	if t > c.now {
		c.now = t
	}
}

// RunFor executes events within the next d of virtual time.
func (c *Clock) RunFor(d time.Duration) { c.RunUntil(c.now + d) }

// NextAt returns the timestamp of the earliest pending live event, reaping
// cancelled events on the way. ok is false when nothing (live) is pending.
// The shard scheduler uses it to compute the global minimum next-event time
// between conservative windows.
func (c *Clock) NextAt() (t time.Duration, ok bool) {
	e := c.peek()
	if e == nil {
		return 0, false
	}
	return e.At, true
}

// RunBefore executes every event with a timestamp strictly below h, leaving
// later events pending. Unlike RunUntil it neither runs events exactly at
// the horizon nor advances Now to it: the clock rests at the last executed
// event, ready for the next window. It is the per-shard half of the
// conservative synchronization protocol (see netsim.Fabric) — a shard may
// safely run [T, T+lookahead) in parallel with its peers because no event
// executed elsewhere in that window can schedule new work below the horizon.
func (c *Clock) RunBefore(h time.Duration) {
	for {
		t, ok := c.NextAt()
		if !ok || t >= h {
			return
		}
		c.Step()
	}
}

// MaxDuration is a run horizon that effectively means "forever".
const MaxDuration = time.Duration(math.MaxInt64)

// --- tick ring and far heap ---
//
// Each event is filed once — into the near heap, a ring slot or the far
// heap — and moved into the near heap at most once, when wheelAdvance opens
// its tick. nearEnd moves forward only past ticks that hold nothing (a decode
// resets it with the queue empty), so every ring event lies within ringSlots
// ticks of nearEnd's and a slot never holds two ticks. TestWheelMatchesHeap
// checks the order against the reference model.

// wheelSparseSpan bounds the sparse fast path's near-horizon extension to 64
// ticks. Wider would let a drained ring capture ever more of the future into
// the near heap and degrade dense workloads to pure heap behavior; narrower
// would miss the packet-in-flight delays (2-6 ms) that make the sparse case
// hot.
const wheelSparseSpan = 64 << wheelTickBits

// wheelAdd files an event into the near heap, its tick's ring slot, or the
// far heap.
func (c *Clock) wheelAdd(e *Event) {
	t := e.At
	if t < c.nearEnd {
		pushEvent(&c.near, e)
		return
	}
	// Sparse fast path: when nothing is filed beyond the near horizon, an
	// event due soon extends the horizon to cover itself and goes straight
	// into the near heap, sparing a lone packet chain a slot insert and a
	// window opening per event. "Due soon" is measured from now — never from
	// the horizon this branch itself raises, or each recurring re-arm would
	// land just past the previous raise, steal every insert, and degrade a
	// dense steady-state population into one big heap.
	if c.ringN == 0 && len(c.far) == 0 && t-c.now < wheelSparseSpan {
		c.nearEnd = (t>>wheelTickBits + 1) << wheelTickBits
		pushEvent(&c.near, e)
		return
	}
	tick := t >> wheelTickBits
	if tick-c.nearEnd>>wheelTickBits >= ringSlots {
		pushEvent(&c.far, e)
		return
	}
	i := int(tick) & ringMask
	e.nxt = c.ring[i]
	c.ring[i] = e
	c.occ[i>>6] |= 1 << (i & 63)
	c.occSum[i>>12] |= 1 << (i >> 6 & 63)
	c.ringN++
}

// wheelPeek returns the earliest live event, opening ticks and reaping
// tombstones until the near heap's top is live.
func (c *Clock) wheelPeek() *Event {
	for {
		if len(c.near) > 0 {
			e := c.near[0]
			if !e.off {
				return e
			}
			popEvent(&c.near)
			c.release(e)
		} else if !c.wheelAdvance() {
			return nil
		}
	}
}

// wheelAdvance opens the near window on the next occupied tick — the ring's
// first occupied slot from nearEnd's on, or the far heap's top tick if that
// comes first — and moves that tick's far events and slot chain into the near
// heap. It returns false when the ring and the far heap are both empty.
// Opening the ring's tick regardless would fire in the same order, since
// every far event below the new nearEnd moves too; taking the earlier keeps
// the near window one tick wide, so later arms still land on the ring.
func (c *Clock) wheelAdvance() bool {
	var tick time.Duration
	switch {
	case c.ringN > 0:
		tick = c.nextRingTick()
		if len(c.far) > 0 {
			tick = min(tick, c.far[0].At>>wheelTickBits)
		}
	case len(c.far) > 0:
		tick = c.far[0].At >> wheelTickBits
	default:
		return false
	}
	c.nearEnd = (tick + 1) << wheelTickBits
	for len(c.far) > 0 && c.far[0].At < c.nearEnd {
		c.toNear(popEvent(&c.far))
	}
	// The slot holds this tick's events or nothing: no ring tick lies between
	// the old nearEnd and this one, and none a whole span beyond it.
	i := int(tick) & ringMask
	e := c.ring[i]
	if e == nil {
		return true
	}
	c.ring[i] = nil
	if c.occ[i>>6] &^= 1 << (i & 63); c.occ[i>>6] == 0 {
		c.occSum[i>>12] &^= 1 << (i >> 6 & 63)
	}
	for e != nil {
		nx := e.nxt
		e.nxt = nil
		c.ringN--
		c.toNear(e)
		e = nx
	}
	return true
}

// toNear moves an event into the near heap, or releases it if cancelled.
func (c *Clock) toNear(e *Event) {
	if e.off {
		c.release(e)
	} else {
		pushEvent(&c.near, e)
	}
}

// nextRingTick returns the first occupied ring tick from nearEnd's on. The
// ring must hold an event.
func (c *Clock) nextRingTick() time.Duration {
	base := c.nearEnd >> wheelTickBits
	s := int(base) & ringMask
	i := c.occupiedFrom(s)
	if i < 0 {
		i = c.occupiedFrom(0) // wrap around
	}
	return base + time.Duration((i-s)&ringMask)
}

// occupiedFrom returns the first occupied slot at or after s, or -1.
func (c *Clock) occupiedFrom(s int) int {
	w := s >> 6
	if m := c.occ[w] >> (s & 63); m != 0 {
		return s + bits.TrailingZeros64(m)
	}
	for w++; w < len(c.occ); w = w | 63 + 1 {
		if m := c.occSum[w>>6] >> (w & 63); m != 0 {
			w += bits.TrailingZeros64(m)
			return w<<6 + bits.TrailingZeros64(c.occ[w])
		}
	}
	return -1
}

// --- 4-ary min-heap ---
//
// Backs the near and far heaps. A 4-ary heap halves the tree
// depth of a binary heap and keeps the four children of a node on one cache
// line of pointers; the concrete element type avoids `any` boxing.

func eventLess(a, b *Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.seq < b.seq
}

func pushEvent(hp *[]*Event, e *Event) {
	h := append(*hp, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !eventLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	*hp = h
}

func popEvent(hp *[]*Event) *Event {
	h := *hp
	n := len(h)
	top := h[0]
	last := h[n-1]
	h[n-1] = nil
	h = h[:n-1]
	n--
	if n > 0 {
		h[0] = last
		// Sift the displaced last element down.
		i := 0
		for {
			first := 4*i + 1
			if first >= n {
				break
			}
			min := first
			end := first + 4
			if end > n {
				end = n
			}
			for j := first + 1; j < end; j++ {
				if eventLess(h[j], h[min]) {
					min = j
				}
			}
			if !eventLess(h[min], h[i]) {
				break
			}
			h[i], h[min] = h[min], h[i]
			i = min
		}
	}
	*hp = h
	return top
}
