package simclock

import (
	"sync"
	"time"
)

// Loop runs a Clock against the wall clock, for live sessions over OS
// sockets: the clock's events fire when their wall-clock instants arrive,
// and functions posted from any goroutine (socket deliveries, dial results)
// run one at a time between them, all on the goroutine that called Run. The
// clock, and every engine its handlers drive, stay single-threaded exactly
// as in simulation, so a Timer is only ever armed, cancelled or asked
// whether it is Active on that goroutine.
//
// An event's handler sees Now equal to its scheduled instant, as under the
// simulator; a posted function sees the wall time at which it runs.
type Loop struct {
	c    *Clock
	base time.Time // the wall instant of virtual time zero

	mu     sync.Mutex
	queue  []func()
	wake   chan struct{}
	closed bool
}

// NewLoop returns a Loop that drives c from now on: c's current virtual time
// is the present wall instant.
func NewLoop(c *Clock) *Loop {
	return &Loop{c: c, base: time.Now().Add(-c.Now()), wake: make(chan struct{}, 1)}
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
	l.signal()
}

// Run fires the clock's events and runs posted functions until Close is
// called and the posts before it have run. Before each posted function, and
// whenever it wakes, it runs every event due by the wall clock and advances
// the clock to the wall time elapsed; while idle it sleeps until the next
// event's instant or the next post. It is typically run on the main
// goroutine of a live-mode binary.
func (l *Loop) Run() {
	for {
		l.mu.Lock()
		q := l.queue
		l.queue = nil
		closed := l.closed
		l.mu.Unlock()
		for _, fn := range q {
			l.c.RunUntil(time.Since(l.base))
			fn()
		}
		if closed {
			return // nothing is queued after Close
		}
		// A post made since q was taken left a token on wake, so the sleep
		// below returns at once for it.
		l.c.RunUntil(time.Since(l.base))
		at, ok := l.c.NextAt()
		if !ok {
			<-l.wake
			continue
		}
		t := time.NewTimer(time.Until(l.base.Add(at)))
		select {
		case <-l.wake:
		case <-t.C:
		}
		t.Stop()
	}
}

// Close stops Run once the functions already posted have run; pending
// events are abandoned.
func (l *Loop) Close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.signal()
}

func (l *Loop) signal() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}
