package simclock

import (
	"fmt"
	"reflect"
	"sort"
	"time"

	"realtracer/internal/snap"
)

// This file is the scheduler half of the world-checkpoint seam: the clock's
// scalar state (now, seq, fired) can be read and restored, the pending
// queue can be enumerated as (At, seq, handler) records and re-armed with
// the original sequence numbers, and a registry of EventHandler types
// declares which handlers a checkpoint knows how to persist.
//
// The contract: every pending event at checkpoint time must have a handler
// of a registered type. Each registered type has exactly one owner in the
// serialized world state (a connection's RTO, a dial's timeout, a session's
// pace tick, an in-flight packet, ...); the owner walks the event's (At, seq)
// alongside its own fields with SyncTimer, which re-arms it on restore. A
// handler type nobody registered — a test's func-typed handler, say — is
// refused by CheckPersistable.
//
// Restored events keep their original (At, seq) pairs and the clock's seq
// counter resumes from the checkpointed value, so the firing order after a
// resume — and the seq of every event scheduled later — is bit-identical to
// the straight-through run.

// eventKinds maps registered EventHandler concrete types to their stable
// names. Registration happens in package init functions, so the map is
// read-only by the time any clock runs.
var eventKinds = map[reflect.Type]string{}

// RegisterEventKind declares that handlers of proto's concrete type are
// persisted by some owner in a world checkpoint. name is the stable label
// used in diagnostics. Registering the same type twice panics.
func RegisterEventKind(name string, proto EventHandler) {
	t := reflect.TypeOf(proto)
	if prev, ok := eventKinds[t]; ok {
		panic(fmt.Sprintf("simclock: event kind %v already registered as %q", t, prev))
	}
	eventKinds[t] = name
}

// PendingEvent is one live scheduled event as seen by a checkpoint walk.
type PendingEvent struct {
	At      time.Duration
	Seq     uint64
	Handler EventHandler
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
		out = append(out, PendingEvent{At: e.At, Seq: e.seq, Handler: e.h})
	}
	for _, e := range c.near {
		add(e)
	}
	for _, e := range c.over {
		add(e)
	}
	for lvl := 0; lvl < wheelLevels; lvl++ {
		for idx := 0; idx < wheelSlots; idx++ {
			for e := c.slot[lvl][idx]; e != nil; e = e.nxt {
				add(e)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// CheckPersistable verifies the clock is in a checkpointable state: every
// pending handler's concrete type registered via RegisterEventKind. The
// error names the first offender. It reads the queue and changes nothing.
func (c *Clock) CheckPersistable() error {
	for _, p := range c.Pendings() {
		if _, ok := eventKinds[reflect.TypeOf(p.Handler)]; !ok {
			return fmt.Errorf("simclock: pending event at %v (seq %d) has unregistered handler type %T", p.At, p.Seq, p.Handler)
		}
	}
	return nil
}

// Sync walks the clock's scalar state — virtual time, the scheduling
// sequence counter, the fired-event count — under the "clock" tag. Decoding
// wipes every pending event and positions the clock at the snapshot's
// instant with an empty wheel; each owner then re-arms its own events
// through SyncTimer.
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
		return
	}
	c.live = 0
	c.firing = nil
	c.free = c.free[:0]
	c.near = c.near[:0]
	c.over = c.over[:0]
	c.nearEnd, c.cur = 0, 0
	for lvl := range c.slot {
		for idx := range c.slot[lvl] {
			c.slot[lvl][idx] = nil
		}
		c.occ[lvl] = 0
	}
}

// SyncTimer walks one owner-held timer as an (armed, At, seq) record.
// Fired, cancelled and zero timers encode as unarmed — exactly the states in
// which re-arming would be wrong. Decoding re-arms h.Fire at the original
// (At, seq) slot, so the restored event fires in the exact order the
// original would have.
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
	if sc.Reading() {
		*t = c.Rearm(sc, at, seq, h)
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
