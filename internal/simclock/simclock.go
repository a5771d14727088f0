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
// closure, every pending event of a registered kind can be written into a
// world checkpoint and re-armed from one (checkpoint.go).
//
// The pending-event queue is a hierarchical timing wheel (calendar-queue
// style): insertion and re-arm are O(1) slot appends instead of heap sifts,
// and exact (At, seq) order is restored by draining one 131µs slot at a
// time through a tiny "near" heap. The wheel is the only scheduler compiled
// into the package; its reference semantics live in differential_test.go as
// an independent model, and TestWheelMatchesHeap replays random
// arm/cancel/re-arm/Step traces through both and requires identical firing
// sequences. Firing order is part of the determinism contract.
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
	nxt *Event // intrusive link while chained in a wheel slot
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

// Timing-wheel geometry. Level 0 slots are 2^wheelTickBits ns (~131µs) wide;
// each level up widens slots by 2^wheelLevelBits, so six 64-slot levels cover
// ~104 days of virtual time. Events beyond the top level's span — or whose
// bit pattern crosses the top-level boundary — wait in a small overflow heap
// that is consulted alongside the wheel, so no timestamp is ever mis-ordered.
const (
	wheelTickBits  = 17
	wheelLevelBits = 6
	wheelSlots     = 1 << wheelLevelBits
	wheelMask      = wheelSlots - 1
	wheelLevels    = 6
	wheelSpanBits  = wheelTickBits + wheelLevels*wheelLevelBits
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

	// Timing wheel. Exact order within the active
	// 131µs window comes from the near heap; everything at or beyond
	// nearEnd lives in the wheel slots (or the overflow heap) and is
	// strictly later than every near event.
	near    []*Event // 4-ary min-heap of events with At < nearEnd
	nearEnd time.Duration
	cur     time.Duration // wheel cursor; == nearEnd whenever user code runs
	slot    [wheelLevels][wheelSlots]*Event
	occ     [wheelLevels]uint64 // per-level slot occupancy bitmaps
	over    []*Event            // 4-ary min-heap of beyond-top-span events
}

// New returns a Clock positioned at virtual time zero with no pending
// events, scheduling through the timing wheel.
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
// Inlinable fast path: a live near-heap top is the global minimum (overflow
// events filed while the near window stood are at or beyond nearEnd), so the
// per-event common case never leaves the caller's frame.
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

// --- hierarchical timing wheel ---
//
// Invariants, maintained by construction and checked against the reference
// model by TestWheelMatchesHeap:
//
//   - near holds exactly the events with At < nearEnd; everything in the
//     wheel slots or the overflow heap is at or beyond nearEnd, so the near
//     heap's (At, seq) order is the global order.
//   - cur == nearEnd whenever user code runs. Inside wheelAdvance the
//     cursor temporarily leads nearEnd while cascading.
//   - Slot indices are absolute functions of the timestamp; an event is
//     placed at the level where its timestamp first differs from cur, so
//     every occupied slot's time range lies at or beyond cur and each
//     slot's start reconstructs as windowStart(cur) | idx<<shift without
//     aliasing into the past.
//   - The cursor only ever advances into time ranges whose slots have been
//     detached, so the windowStart reconstruction below never aliases a
//     past window.

func wheelShift(lvl int) int { return wheelTickBits + lvl*wheelLevelBits }

// wheelSparseSpan bounds the sparse fast path's near-horizon extension to
// one level-0 revolution. Wider would let a drained wheel capture ever more
// of the future into the near heap and degrade dense workloads to pure heap
// behavior; narrower would miss the packet-in-flight delays (2-6 ms) that
// make the sparse case hot.
const wheelSparseSpan = time.Duration(1) << (wheelTickBits + wheelLevelBits)

// wheelAdd files an event into the near heap, a wheel slot, or the overflow
// heap. O(1) plus a (rare) small-heap sift.
func (c *Clock) wheelAdd(e *Event) {
	t := e.At
	if t < c.nearEnd {
		pushEvent(&c.near, e)
		return
	}
	// Sparse fast path: when nothing at all is filed beyond the near
	// horizon, an event due soon extends the horizon to cover itself and
	// goes straight into the near heap. A lone packet chain (one event in
	// flight at a time) would otherwise pay a slot insert plus a multi-level
	// cascade per event; with few events pending, the near heap's O(log n)
	// is far cheaper. The "due soon" bound is measured from now — never from
	// the horizon this branch itself raises, or each recurring re-arm would
	// land just past the previous raise, steal every insert, and degrade a
	// dense steady-state population into one big heap. Long delays go to the
	// wheel, occupy it, and thereby switch the short delays back too.
	if t-c.now < wheelSparseSpan && len(c.over) == 0 &&
		c.occ[0]|c.occ[1]|c.occ[2]|c.occ[3]|c.occ[4]|c.occ[5] == 0 {
		c.nearEnd = (t>>wheelTickBits + 1) << wheelTickBits
		c.cur = c.nearEnd
		pushEvent(&c.near, e)
		return
	}
	d := uint64(t ^ c.cur)
	lvl := 0
	if d>>wheelTickBits != 0 {
		lvl = (bits.Len64(d) - 1 - wheelTickBits) / wheelLevelBits
	}
	if lvl >= wheelLevels {
		pushEvent(&c.over, e)
		return
	}
	idx := int(t>>wheelShift(lvl)) & wheelMask
	e.nxt = c.slot[lvl][idx]
	c.slot[lvl][idx] = e
	c.occ[lvl] |= 1 << idx
}

// wheelPeek returns the earliest live event, pulling boundary-crossing
// overflow events into the near window and reaping tombstones.
func (c *Clock) wheelPeek() *Event {
	for {
		if len(c.over) > 0 && c.over[0].At < c.nearEnd {
			e := popEvent(&c.over)
			if e.off {
				c.release(e)
			} else {
				pushEvent(&c.near, e)
			}
			continue
		}
		if len(c.near) > 0 {
			e := c.near[0]
			if e.off {
				popEvent(&c.near)
				c.release(e)
				continue
			}
			return e
		}
		if !c.wheelAdvance() {
			return nil
		}
	}
}

// wheelAdvance moves the near window forward to the next occupied time
// range: it dumps the earliest level-0 slot into the near heap, cascading
// higher-level slots down as the cursor reaches them, or jumps the window
// to the earliest overflow event when that precedes everything wheeled.
// Returns false when the wheel and overflow heap are both empty.
//
// The earliest occupied slot is the minimum reconstructed slot start across
// all levels — not simply the lowest occupied level's lowest slot. The
// distinction matters at window boundaries: a level-0 dump can advance the
// cursor to exactly the start of a still-occupied higher-level slot, after
// which a fresh insert lands at a lower level inside that slot's span. Ties
// break toward the higher level, whose span contains the lower-level slot
// and must cascade first.
func (c *Clock) wheelAdvance() bool {
	// Fully-empty short-circuit: in the sparse regime (everything riding the
	// near heap) this is every call, and the level scan below would be pure
	// overhead on the packet hot path.
	if c.occ[0]|c.occ[1]|c.occ[2]|c.occ[3]|c.occ[4]|c.occ[5] == 0 && len(c.over) == 0 {
		c.cur = c.nearEnd
		return false
	}
	for {
		lvl, idx := -1, 0
		var slotStart time.Duration
		for l := 0; l < wheelLevels; l++ {
			if c.occ[l] == 0 {
				continue
			}
			i := bits.TrailingZeros64(c.occ[l])
			shift := wheelShift(l)
			window := time.Duration(1) << (shift + wheelLevelBits)
			start := (c.cur &^ (window - 1)) | (time.Duration(i) << shift)
			if lvl < 0 || start <= slotStart {
				lvl, idx, slotStart = l, i, start
			}
		}
		if lvl < 0 {
			if len(c.over) == 0 {
				// The wheel drained (possibly by cascading pure-tombstone
				// slots, which advances cur without producing anything).
				// Roll the cursor back to the near boundary: wheelAdd's
				// level selection assumes t >= cur, and a cursor left ahead
				// of nearEnd would alias future inserts into past slots.
				// A cascade that emptied the wheel may have re-filed its
				// events through the sparse fast path, which parks them in
				// the near heap — that is progress, not exhaustion.
				c.cur = c.nearEnd
				return len(c.near) > 0
			}
			// Nothing wheeled: open the near window at the earliest
			// overflow event's slot; the peek loop drains it across.
			c.nearEnd = c.over[0].At&^(1<<wheelTickBits-1) + 1<<wheelTickBits
			c.cur = c.nearEnd
			return true
		}
		width := time.Duration(1) << wheelShift(lvl)
		if len(c.over) > 0 && c.over[0].At < slotStart {
			// A top-boundary-crossing overflow event precedes the earliest
			// wheeled slot: open the window there instead. nearEnd stays at
			// or below slotStart (both are tick-aligned), so no wheel slot
			// is skipped.
			c.nearEnd = c.over[0].At&^(1<<wheelTickBits-1) + 1<<wheelTickBits
			c.cur = c.nearEnd
			return true
		}
		head := c.slot[lvl][idx]
		c.slot[lvl][idx] = nil
		c.occ[lvl] &^= 1 << idx
		if lvl == 0 {
			c.cur = slotStart + width
			c.nearEnd = c.cur
			for e := head; e != nil; {
				nx := e.nxt
				e.nxt = nil
				if e.off {
					c.release(e)
				} else {
					pushEvent(&c.near, e)
				}
				e = nx
			}
			// The slot may have held only tombstones; the peek loop comes
			// back around if the near heap is still empty.
			return true
		}
		// Cascade: re-file the slot's events relative to its start. Each
		// lands at a strictly lower level (amortized O(1) per event over
		// its lifetime).
		c.cur = slotStart
		for e := head; e != nil; {
			nx := e.nxt
			e.nxt = nil
			if e.off {
				c.release(e)
			} else {
				c.wheelAdd(e)
			}
			e = nx
		}
	}
}

// --- 4-ary min-heap ---
//
// Backs the wheel's near and overflow heaps. A 4-ary heap halves the tree
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
