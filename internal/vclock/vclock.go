// Package vclock abstracts time for the server and player engines so the
// same code runs under the discrete-event simulator (reproducing the study)
// and under the wall clock (live localhost sessions).
//
// Live mode keeps the engines single-threaded the same way the simulator
// does: every timer callback and every network delivery is posted to a Loop,
// a serial executor owned by one goroutine.
package vclock

import (
	"sync"
	"time"

	"realtracer/internal/simclock"
)

// Clock schedules callbacks. Implementations guarantee callbacks never run
// concurrently with each other.
type Clock interface {
	// Now returns elapsed time since the clock's origin.
	Now() time.Duration
	// AfterHandler schedules h.Fire to run once, d from now. The simulated
	// implementation allocates nothing: the pending event is pooled and the
	// returned Handle is a value type, so engines that re-arm timers on every
	// packet (players, pacers) stay allocation-free. Re-arming from inside
	// Fire is the cheapest path of all — the simulator's timing wheel reuses
	// the just-fired event slot, making a recurring timer an O(1) wheel insert
	// with no heap traffic. Handler identity is the caller's: pass a pointer
	// to long-lived state, never a fresh closure-like box.
	AfterHandler(d time.Duration, h simclock.EventHandler) Handle
}

// Handle is a cancellable pending handler callback. The zero Handle is
// inert: Cancel is a no-op and Armed reports false, so "not scheduled" needs
// no sentinel.
type Handle struct {
	sim simclock.Timer
	rt  *realHandle
}

// Cancel prevents the callback from firing. Idempotent; cancelling an
// already-fired or zero Handle is a no-op. A Handle from a recycled event
// generation is inert (the PR 4 generation-check discipline), so stale
// handles held by pooled sessions can never cancel a successor's timer.
func (h Handle) Cancel() {
	if h.rt != nil {
		h.rt.cancel()
		return
	}
	h.sim.Cancel()
}

// Armed reports whether the callback is still pending. A fired, cancelled,
// or zero Handle reports false.
func (h Handle) Armed() bool {
	if h.rt != nil {
		return h.rt.armed()
	}
	return h.sim.Active()
}

// Sim adapts a *simclock.Clock to the Clock interface.
type Sim struct{ C *simclock.Clock }

// Now implements Clock.
func (s Sim) Now() time.Duration { return s.C.Now() }

// AfterHandler implements Clock by delegating to the simulator's pooled
// event path.
func (s Sim) AfterHandler(d time.Duration, h simclock.EventHandler) Handle {
	return Handle{sim: s.C.AfterHandler(d, h)}
}

// Loop is a serial executor: functions posted from any goroutine run one at
// a time on the goroutine that called Run.
type Loop struct {
	mu     sync.Mutex
	queue  []func()
	wake   chan struct{}
	closed bool
}

// NewLoop returns a ready Loop.
func NewLoop() *Loop {
	return &Loop{wake: make(chan struct{}, 1)}
}

// Post enqueues fn for execution on the loop goroutine. Posting to a closed
// loop drops fn.
func (l *Loop) Post(fn func()) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.queue = append(l.queue, fn)
	l.mu.Unlock()
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// Run processes posted functions until Close is called. It is typically run
// on the main goroutine of a live-mode binary.
func (l *Loop) Run() {
	for {
		l.mu.Lock()
		q := l.queue
		l.queue = nil
		closed := l.closed
		l.mu.Unlock()
		for _, fn := range q {
			fn()
		}
		if closed && len(q) == 0 {
			return
		}
		if len(q) == 0 {
			<-l.wake
		}
	}
}

// Close stops Run after the queue drains.
func (l *Loop) Close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// Real is a wall clock whose callbacks are serialized through a Loop.
type Real struct {
	Base time.Time
	Loop *Loop
}

// NewReal returns a Real clock with origin now.
func NewReal(loop *Loop) *Real { return &Real{Base: time.Now(), Loop: loop} }

// Now implements Clock.
func (r *Real) Now() time.Duration { return time.Since(r.Base) }

// AfterHandler implements Clock. The callback is posted to the loop, never
// run on the timer goroutine. Live mode has no event pool, so this path
// allocates; the zero-alloc guarantee only matters under the simulator,
// where session churn is measured in millions.
func (r *Real) AfterHandler(d time.Duration, h simclock.EventHandler) Handle {
	rh := &realHandle{loop: r.Loop, clock: r, h: h}
	rh.t = time.AfterFunc(d, rh.fired)
	return Handle{rt: rh}
}

type realHandle struct {
	mu    sync.Mutex
	done  bool
	t     *time.Timer
	loop  *Loop
	clock *Real
	h     simclock.EventHandler
}

func (rh *realHandle) fired() {
	rh.mu.Lock()
	dead := rh.done
	rh.done = true
	rh.mu.Unlock()
	if dead {
		return
	}
	rh.loop.Post(func() { rh.h.Fire(rh.clock.Now()) })
}

func (rh *realHandle) cancel() {
	rh.mu.Lock()
	rh.done = true
	rh.mu.Unlock()
	rh.t.Stop()
}

func (rh *realHandle) armed() bool {
	rh.mu.Lock()
	defer rh.mu.Unlock()
	return !rh.done
}
