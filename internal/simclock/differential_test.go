package simclock

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"realtracer/internal/snap"
)

// The scheduler's correctness contract is bit-exact equivalence with a
// plain priority queue ordered by (At, seq): same firing sequence, same
// Fired/Pending counters, same Now, for any trace of arms, cancels, re-arms
// and run calls. refClock is that reference — an independent model that
// shares no scheduling code with Clock; these tests replay random traces
// through both in lockstep.

// refClock is the reference scheduler: an unordered set of pending events,
// the next one found by scanning for the least (at, seq). Cancel removes the
// event at once and events are never recycled, so there are no tombstones,
// generations or free-lists to get wrong.
type refClock struct {
	now        time.Duration
	seq, fired uint64
	pending    []*refEvent
}

type refEvent struct {
	at   time.Duration
	seq  uint64
	h    EventHandler
	done bool // fired or cancelled
}

// refTimer mirrors Timer's Cancel/Active contract.
type refTimer struct {
	c *refClock
	e *refEvent
}

func (t refTimer) Active() bool { return t.e != nil && !t.e.done }

func (t refTimer) Cancel() {
	if !t.Active() {
		return
	}
	t.e.done = true
	i := slices.Index(t.c.pending, t.e)
	t.c.pending = slices.Delete(t.c.pending, i, i+1)
}

func (r *refClock) Now() time.Duration { return r.now }
func (r *refClock) Fired() uint64      { return r.fired }
func (r *refClock) Pending() int       { return len(r.pending) }

func (r *refClock) AtHandler(t time.Duration, h EventHandler) refTimer {
	if t < r.now {
		t = r.now
	}
	e := &refEvent{at: t, seq: r.seq, h: h}
	r.seq++
	r.pending = append(r.pending, e)
	return refTimer{c: r, e: e}
}

func (r *refClock) AfterHandler(d time.Duration, h EventHandler) refTimer {
	if d < 0 {
		d = 0
	}
	return r.AtHandler(r.now+d, h)
}

// next returns the index of the earliest pending event, or -1.
func (r *refClock) next() int {
	best := -1
	for i, e := range r.pending {
		if best < 0 || e.at < r.pending[best].at || e.at == r.pending[best].at && e.seq < r.pending[best].seq {
			best = i
		}
	}
	return best
}

func (r *refClock) NextAt() (time.Duration, bool) {
	i := r.next()
	if i < 0 {
		return 0, false
	}
	return r.pending[i].at, true
}

func (r *refClock) Step() bool {
	i := r.next()
	if i < 0 {
		return false
	}
	e := r.pending[i]
	r.pending = slices.Delete(r.pending, i, i+1)
	e.done = true
	r.now = e.at
	r.fired++
	e.h.Fire(r.now)
	return true
}

func (r *refClock) Run() {
	for r.Step() {
	}
}

func (r *refClock) RunFor(d time.Duration) {
	t := r.now + d
	for {
		at, ok := r.NextAt()
		if !ok || at > t {
			break
		}
		r.Step()
	}
	if t > r.now {
		r.now = t
	}
}

func (r *refClock) RunBefore(h time.Duration) {
	for {
		at, ok := r.NextAt()
		if !ok || at >= h {
			return
		}
		r.Step()
	}
}

// tracePair drives one Clock and the reference with identical inputs
// and records each one's firing log as (label, time) strings.
type tracePair struct {
	w          *Clock
	h          *refClock
	wlog, hlog []string
}

func newTracePair() *tracePair { return &tracePair{w: New(), h: &refClock{}} }

func (p *tracePair) handlers(label int) (wh, hh EventHandler) {
	wh = &funcHandler{fn: func(now time.Duration) { p.wlog = append(p.wlog, fmt.Sprintf("%d@%d", label, now)) }}
	hh = &funcHandler{fn: func(now time.Duration) { p.hlog = append(p.hlog, fmt.Sprintf("%d@%d", label, now)) }}
	return
}

func (p *tracePair) check(t *testing.T, tag string) {
	t.Helper()
	if len(p.wlog) != len(p.hlog) {
		t.Fatalf("%s: wheel fired %d events, reference %d", tag, len(p.wlog), len(p.hlog))
	}
	for i := range p.wlog {
		if p.wlog[i] != p.hlog[i] {
			t.Fatalf("%s: firing sequence diverges at %d: wheel %q vs reference %q", tag, i, p.wlog[i], p.hlog[i])
		}
	}
	if p.w.Fired() != p.h.Fired() {
		t.Fatalf("%s: Fired %d vs %d", tag, p.w.Fired(), p.h.Fired())
	}
	if p.w.Pending() != p.h.Pending() {
		t.Fatalf("%s: Pending %d vs %d", tag, p.w.Pending(), p.h.Pending())
	}
	if p.w.Now() != p.h.Now() {
		t.Fatalf("%s: Now %v vs %v", tag, p.w.Now(), p.h.Now())
	}
	wa, wok := p.w.NextAt()
	ha, hok := p.h.NextAt()
	if wa != ha || wok != hok {
		t.Fatalf("%s: NextAt (%v,%v) vs (%v,%v)", tag, wa, wok, ha, hok)
	}
}

// randomDelay spans the near window, the ring, both edges of the ring's span
// and the far heap: most delays are short (the pace-tick regime), some
// straddle the span to the nanosecond, a tail reaches hours, days and
// centuries, and exact ties are common.
func randomDelay(rng *rand.Rand) time.Duration {
	switch rng.Intn(11) {
	case 0:
		return 0 // immediate: same-timestamp FIFO
	case 1, 2, 3:
		return time.Duration(rng.Intn(2000)) * 100 * time.Microsecond // sub-tick to 200 ms
	case 4, 5, 6:
		return time.Duration(rng.Intn(5000)) * time.Millisecond // across the ring
	case 7:
		return time.Duration(rng.Intn(100)) * time.Hour // far
	case 8:
		return time.Duration(rng.Intn(300)) * 24 * time.Hour // farther
	case 9:
		// span-1, span or span+1 ticks, give or take a nanosecond
		return time.Duration(ringSlots-1+rng.Intn(3))<<wheelTickBits + time.Duration(rng.Intn(3)-1)
	default:
		return time.Duration(rng.Int63n(int64(200 * 365 * 24 * time.Hour))) // deep far
	}
}

// TestWheelMatchesHeap replays random arm/cancel/re-arm/Step/Run traces
// through the wheel and the reference model and requires identical firing
// sequences and counters at every checkpoint.
func TestWheelMatchesHeap(t *testing.T) {
	traces := 60
	ops := 400
	if testing.Short() {
		traces = 12
	}
	for seed := int64(0); seed < int64(traces); seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newTracePair()
		type pair struct {
			w Timer
			h refTimer
		}
		var timers []pair
		label := 0
		for i := 0; i < ops; i++ {
			switch rng.Intn(10) {
			case 0, 1, 2: // relative arm
				d := randomDelay(rng)
				wh, hh := p.handlers(label)
				label++
				timers = append(timers, pair{p.w.AfterHandler(d, wh), p.h.AfterHandler(d, hh)})
			case 3: // arm at an absolute time, possibly in the past
				at := p.w.Now() + randomDelay(rng) - 50*time.Millisecond
				wl, hl := p.handlers(label)
				label++
				p.w.AtHandler(at, wl)
				p.h.AtHandler(at, hl)
			case 4: // cancel a random handle (live, stale, or already cancelled)
				if len(timers) == 0 {
					continue
				}
				j := rng.Intn(len(timers))
				if timers[j].w.Active() != timers[j].h.Active() {
					t.Fatalf("seed %d op %d: Active() diverges for timer %d", seed, i, j)
				}
				timers[j].w.Cancel()
				timers[j].h.Cancel()
			case 5, 6: // bounded run
				d := randomDelay(rng)
				p.w.RunFor(d)
				p.h.RunFor(d)
			case 7: // single step
				ws := p.w.Step()
				hs := p.h.Step()
				if ws != hs {
					t.Fatalf("seed %d op %d: Step returned %v vs %v", seed, i, ws, hs)
				}
			case 8: // window protocol probe, as the shard fabric drives it
				h := p.w.Now() + randomDelay(rng)
				p.w.RunBefore(h)
				p.h.RunBefore(h)
			case 9: // re-arm from inside Fire: the recurring-timer fast path
				d := randomDelay(rng)
				reps := rng.Intn(4) + 1
				tick := time.Duration(rng.Intn(200)+1) * time.Millisecond
				wl, hl := p.handlers(label)
				label++
				p.w.AfterHandler(d, &rearmTick{log: wl, left: reps, rearm: func(h EventHandler) { p.w.AfterHandler(tick, h) }})
				p.h.AfterHandler(d, &rearmTick{log: hl, left: reps, rearm: func(h EventHandler) { p.h.AfterHandler(tick, h) }})
			}
			if i%50 == 0 {
				p.check(t, fmt.Sprintf("seed %d op %d", seed, i))
			}
		}
		p.w.Run()
		p.h.Run()
		p.check(t, fmt.Sprintf("seed %d drained", seed))
		if p.w.Pending() != 0 {
			t.Fatalf("seed %d: %d events pending after Run", seed, p.w.Pending())
		}
	}
}

// rearmTick re-arms itself a fixed number of times from inside Fire,
// exercising the firing-slot reuse path on the wheel.
type rearmTick struct {
	log   EventHandler
	left  int
	rearm func(EventHandler) // schedules the next tick on the owning scheduler
}

func (r *rearmTick) Fire(now time.Duration) {
	r.log.Fire(now)
	if r.left--; r.left > 0 {
		r.rearm(r)
	}
}

// TestWheelOverflowOrdering pins the far heap's interaction with the ring:
// events beyond the ring's ~4.29s span must interleave correctly with
// near-term events, including events scheduled between the two ranges after
// time has advanced, and a far event must fire in (At, seq) order with ring
// events that came to share its tick.
func TestWheelOverflowOrdering(t *testing.T) {
	p := newTracePair()
	day := 24 * time.Hour
	delays := []time.Duration{
		150 * day, time.Millisecond, 104 * day, 500 * day,
		time.Second, 105 * day, 0, 103 * day,
	}
	for i, d := range delays {
		wh, hh := p.handlers(i)
		p.w.AfterHandler(d, wh)
		p.h.AfterHandler(d, hh)
	}
	p.w.RunFor(104 * day)
	p.h.RunFor(104 * day)
	p.check(t, "mid horizon")
	// From the advanced clock, formerly far times are now within the ring.
	for i, d := range []time.Duration{time.Minute, 40 * day, 500 * day} {
		wh, hh := p.handlers(100 + i)
		p.w.AfterHandler(d, wh)
		p.h.AfterHandler(d, hh)
	}
	p.w.Run()
	p.h.Run()
	p.check(t, "drained")

	// One tick, two structures: a far event filed from one span back, then,
	// once time has moved within the span, ring events on the same tick —
	// one a nanosecond earlier, one at the same instant with a later seq.
	// The event at 5/4 span keeps the window from opening on that tick early.
	p = newTracePair()
	span := time.Duration(ringSlots) << wheelTickBits
	at := 3*span/2 + 100
	arm := func(label int, at time.Duration) {
		wh, hh := p.handlers(label)
		p.w.AtHandler(at, wh)
		p.h.AtHandler(at, hh)
	}
	arm(0, at)
	arm(1, span)
	arm(2, 5*span/4)
	p.w.RunUntil(span)
	p.h.RunFor(span - p.h.Now())
	arm(3, at)
	arm(4, at-1)
	if len(p.w.far) != 1 || p.w.ringN != 2 {
		t.Fatalf("far heap holds %d events and the ring %d, want 1 and 2", len(p.w.far), p.w.ringN)
	}
	p.w.Run()
	p.h.Run()
	p.check(t, "same tick")
	if want := fmt.Sprintf("1@%d 2@%d 4@%d 0@%d 3@%d", span, 5*span/4, at-1, at, at); strings.Join(p.wlog, " ") != want {
		t.Fatalf("fired %v, want %s", p.wlog, want)
	}
}

// TestWheelRestoreMatchesHeap decodes a clock at an instant that is not
// tick-aligned, re-arms events on both sides of the ring's span from there,
// as a world's owners do on resume, and requires the reference's order.
func TestWheelRestoreMatchesHeap(t *testing.T) {
	const now = 20*time.Minute + 12345
	src := New()
	for i := 0; i < 64; i++ {
		src.AfterHandler(time.Duration(i)*time.Second, &countHandler{})
	}
	src.RunUntil(now)
	var buf bytes.Buffer
	src.Sync(snap.NewEncoder(&buf))

	p := newTracePair()
	p.w.AfterHandler(time.Hour, &countHandler{}) // wiped by the decode
	dec := snap.NewDecoder(buf.Bytes())
	p.w.Sync(dec)
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
	p.h.now, p.h.seq, p.h.fired = now, src.seq, src.fired
	base := now &^ (1<<wheelTickBits - 1)
	if p.w.nearEnd != base {
		t.Fatalf("restored nearEnd %v, want the tick boundary %v below now", p.w.nearEnd, base)
	}

	// Events in now's tick, the next, and a tick either side of the span's
	// edge, measured from that boundary, each to the nanosecond; latest
	// first, so the near window stays where the decode put it. Seqs run
	// backwards, so ties need them.
	var ats []time.Duration
	for _, k := range []time.Duration{ringSlots + 1, ringSlots, ringSlots - 1, 1, 0} {
		for _, d := range []time.Duration{1, 0, -1} {
			if at := base + k<<wheelTickBits + d; at >= now {
				ats = append(ats, at, at)
			}
		}
	}
	for i, at := range ats {
		seq := src.seq - 1 - uint64(i)
		wh, hh := p.handlers(i)
		p.w.arm(at, seq, &rearmTick{log: wh, left: 3, rearm: func(h EventHandler) { p.w.AfterHandler(time.Duration(i)*time.Second, h) }})
		p.h.pending = append(p.h.pending, &refEvent{at: at, seq: seq, h: &rearmTick{log: hh, left: 3, rearm: func(h EventHandler) { p.h.AfterHandler(time.Duration(i)*time.Second, h) }}})
	}
	if p.w.ringN == 0 || len(p.w.far) == 0 {
		t.Fatalf("%d events on the ring, %d far: want both sides of the span", p.w.ringN, len(p.w.far))
	}
	p.check(t, "restored")
	p.w.Run()
	p.h.Run()
	p.check(t, "drained")
}
