package simclock

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"realtracer/internal/snap"
)

// This file is the scheduler half of the world-checkpoint seam: the clock's
// scalar state (now, seq, fired) can be read and restored, the pending
// queue can be enumerated as (At, seq, handler) records and re-armed with
// the original sequence numbers.
//
// The contract: every pending event at checkpoint time has exactly one owner
// in the serialized world state (a connection's RTO, a dial's timeout, a
// session's pace tick, an in-flight packet, ...). The owner walks the event's
// (At, seq) alongside its own fields — a held timer with SyncTimer, a packet
// found through Pendings with SyncEvent — which re-arms it on restore. The
// encoding walk is itself the check: both calls record the event they
// persist, and CheckOwned, run after the walk, fails the snapshot on the
// first pending event that no owner persisted, or that two did. An event
// nobody owns — a test's func-typed handler, an arm nothing walks — would
// otherwise vanish on resume.
//
// Restored events keep their original (At, seq) pairs and the clock's seq
// counter resumes from the checkpointed value, so the firing order after a
// resume — and the seq of every event scheduled later — is bit-identical to
// the straight-through run.

// PendingEvent is one live scheduled event as seen by a checkpoint walk.
type PendingEvent struct {
	At      time.Duration
	Seq     uint64
	Handler EventHandler
	e       *Event // for SyncEvent's record of what the walk persisted
}

// Pendings returns every live pending event in seq order (scheduling
// order). Cancelled tombstones are skipped, not reaped; the walk mutates
// nothing, so it can run mid-simulation.
func (c *Clock) Pendings() []PendingEvent {
	out := make([]PendingEvent, 0, c.live)
	add := func(e *Event) {
		if e == nil || e.off {
			return
		}
		out = append(out, PendingEvent{At: e.At, Seq: e.seq, Handler: e.h, e: e})
	}
	for _, e := range c.near {
		add(e)
	}
	for _, e := range c.ring[:] {
		for ; e != nil; e = e.nxt {
			add(e)
		}
	}
	for _, e := range c.far {
		add(e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Sync walks the clock's scalar state — virtual time, the scheduling
// sequence counter, the fired-event count — under the "clock" tag. Decoding
// wipes every pending event and positions the clock at the snapshot's
// instant with an empty queue whose near window ends at the tick boundary at
// or below it; each owner then re-arms its own events through SyncTimer.
// Encoding begins the walk that CheckOwned ends.
func (c *Clock) Sync(sc *snap.Codec) {
	now := c.now
	sc.Tag("clock")
	sc.Dur(&now)
	if sc.Reading() && sc.Err() == nil && now < 0 {
		sc.Fail(fmt.Errorf("simclock: snapshot clock at negative time %v", now))
	}
	c.now = now
	sc.U64(&c.seq)
	sc.U64(&c.fired)
	if !sc.Reading() {
		c.owned = c.owned[:0]
		return
	}
	c.live = 0
	if c.firing != nil {
		c.free = append(c.free, c.firing)
		c.firing = nil
	}
	// Every event the rebuilt world armed goes back to the free-list with its
	// generation bumped, so a Timer still held for one cancels nothing.
	for _, q := range [][]*Event{c.near, c.far} {
		for _, e := range q {
			c.release(e)
		}
	}
	for _, e := range c.ring[:] {
		for e != nil {
			nxt := e.nxt
			c.release(e)
			e = nxt
		}
	}
	c.near = c.near[:0]
	c.far = c.far[:0]
	clear(c.ring[:])
	clear(c.occ[:])
	clear(c.occSum[:])
	c.ringN = 0
	c.nearEnd = now &^ (1<<wheelTickBits - 1)
}

// SyncTimer walks one owner-held timer as an (armed, At, seq) record.
// Fired, cancelled and zero timers encode as unarmed — exactly the states in
// which re-arming would be wrong. Decoding re-arms h.Fire at the original
// (At, seq) slot, so the restored event fires in the exact order the
// original would have. Encoding records the event as persisted, and fails sc
// when h is not the handler the event will fire: the restore would re-arm
// another.
func (c *Clock) SyncTimer(sc *snap.Codec, t *Timer, h EventHandler) {
	at, seq, armed := t.When()
	sc.Bool(&armed)
	if sc.Reading() {
		*t = Timer{}
	}
	if !armed {
		return
	}
	sc.Dur(&at)
	sc.U64(&seq)
	switch {
	case sc.Reading():
		*t = c.Rearm(sc, at, seq, h)
	case t.e.h != h:
		sc.Fail(fmt.Errorf("simclock: pending event at %v (seq %d) with handler type %T is walked as a timer of %T", at, seq, t.e.h, h))
	default:
		c.owned = append(c.owned, t.e)
	}
}

// SyncEvent walks the (At, seq) slot of a pending event that its owner found
// through Pendings rather than holding a Timer, as an in-flight packet's
// network does. Encoding records the event as persisted; decoding fills pe's
// At and Seq, and the owner re-arms the event with Rearm once it has rebuilt
// the handler.
func (c *Clock) SyncEvent(sc *snap.Codec, pe *PendingEvent) {
	sc.Dur(&pe.At)
	sc.U64(&pe.Seq)
	if !sc.Reading() {
		c.owned = append(c.owned, pe.e)
	}
}

// CheckOwned ends an encoding walk begun by Sync: it fails sc on the first
// pending event, in seq order, that the walk persisted other than exactly
// once, naming its handler type, At and seq. An event no owner walked would
// be dropped on resume, and one two owners walked would be re-armed twice.
// Decoding checks nothing: every restored event was re-armed by its owner.
func (c *Clock) CheckOwned(sc *snap.Codec) {
	owned := c.owned
	c.owned = nil
	if sc.Reading() || sc.Err() != nil {
		return
	}
	slices.SortFunc(owned, func(a, b *Event) int { return cmp.Compare(a.seq, b.seq) })
	for _, p := range c.Pendings() {
		n := 0
		for ; len(owned) > 0 && owned[0] == p.e; owned = owned[1:] {
			n++
		}
		if n != 1 {
			sc.Fail(fmt.Errorf("simclock: pending event at %v (seq %d) with handler type %T is persisted by %d owners, want 1", p.At, p.Seq, p.Handler, n))
		}
	}
}

// Rearm is Arm for an (At, seq) pair decoded from a snapshot: a slot the
// restored clock cannot hold (in the past, or a seq the clock has not
// issued yet) fails the codec instead of reaching Arm's panics, which stay
// reserved for programmer misuse.
func (c *Clock) Rearm(sc *snap.Codec, at time.Duration, seq uint64, h EventHandler) Timer {
	if sc.Err() != nil {
		return Timer{}
	}
	if at < c.now || seq >= c.seq {
		sc.Fail(fmt.Errorf("simclock: snapshot event (at %v, seq %d) outside the restored clock (now %v, seq %d)", at, seq, c.now, c.seq))
		return Timer{}
	}
	return c.Arm(at, seq, h)
}

// Arm schedules h.Fire at absolute time at with an explicit sequence number
// — the restore-side counterpart of AtHandler. seq must come from a
// checkpointed event of this clock (strictly below the restored Seq); the
// clock's own counter is not advanced, so events scheduled after the
// restore receive the same seqs they would have in a straight-through run.
func (c *Clock) Arm(at time.Duration, seq uint64, h EventHandler) Timer {
	if h == nil {
		panic("simclock: Arm with nil handler")
	}
	if at < c.now {
		panic(fmt.Sprintf("simclock: Arm at %v before now %v", at, c.now))
	}
	if seq >= c.seq {
		panic(fmt.Sprintf("simclock: Arm seq %d not below clock seq %d", seq, c.seq))
	}
	e := c.obtain()
	e.At = at
	e.h = h
	e.clk = c
	e.seq = seq
	e.off = false
	c.live++
	c.wheelAdd(e)
	return Timer{e: e, gen: e.gen}
}

// When reports the scheduled (At, seq) of the timer's event, with ok false
// for a fired, cancelled, stale or zero handle. Owners persist their armed
// timers as (At, seq) records through this accessor.
func (t Timer) When() (at time.Duration, seq uint64, ok bool) {
	if !t.Active() {
		return 0, 0, false
	}
	return t.e.At, t.e.seq, true
}
