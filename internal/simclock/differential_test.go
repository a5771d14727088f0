package simclock

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// The timing wheel's correctness contract is bit-exact equivalence with a
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

// tracePair drives one wheel clock and the reference with identical inputs
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

// randomDelay spans every wheel level and the overflow heap: most delays are
// short (the pace-tick regime), a tail reaches hours, days, and past the
// wheel's ~104-day top span, and exact ties are common.
func randomDelay(rng *rand.Rand) time.Duration {
	switch rng.Intn(10) {
	case 0:
		return 0 // immediate: same-timestamp FIFO
	case 1, 2, 3:
		return time.Duration(rng.Intn(2000)) * 100 * time.Microsecond // sub-tick to level 1
	case 4, 5, 6:
		return time.Duration(rng.Intn(5000)) * time.Millisecond // level 1-2
	case 7:
		return time.Duration(rng.Intn(100)) * time.Hour // level 4-5
	case 8:
		return time.Duration(rng.Intn(300)) * 24 * time.Hour // top level and beyond
	default:
		return time.Duration(rng.Int63n(int64(200 * 365 * 24 * time.Hour))) // deep overflow
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

// TestWheelOverflowOrdering pins the overflow heap's interaction with the
// wheel: events beyond the wheel's ~104-day span must interleave correctly
// with near-term events, including events scheduled between the two ranges
// after time has advanced.
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
	// From the advanced cursor, formerly-overflow times are now wheelable.
	for i, d := range []time.Duration{time.Minute, 40 * day, 500 * day} {
		wh, hh := p.handlers(100 + i)
		p.w.AfterHandler(d, wh)
		p.h.AfterHandler(d, hh)
	}
	p.w.Run()
	p.h.Run()
	p.check(t, "drained")
}
