package simclock

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// fireFunc adapts a closure to an EventHandler. Its type is not a registered
// event kind, so a clock holding one is not checkpointable.
type fireFunc func()

func (f fireFunc) Fire(time.Duration) { f() }

func TestEventsFireInTimestampOrder(t *testing.T) {
	c := New()
	var got []int
	c.AfterHandler(30*time.Millisecond, fireFunc(func() { got = append(got, 3) }))
	c.AfterHandler(10*time.Millisecond, fireFunc(func() { got = append(got, 1) }))
	c.AfterHandler(20*time.Millisecond, fireFunc(func() { got = append(got, 2) }))
	c.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("fired out of order: %v", got)
	}
}

func TestEqualTimestampsFireFIFO(t *testing.T) {
	c := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		c.AtHandler(time.Second, fireFunc(func() { got = append(got, i) }))
	}
	c.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("equal-timestamp events not FIFO: %v", got)
		}
	}
}

func TestNowAdvancesToEventTime(t *testing.T) {
	c := New()
	var at time.Duration
	c.AtHandler(42*time.Millisecond, fireFunc(func() { at = c.Now() }))
	c.Run()
	if at != 42*time.Millisecond {
		t.Fatalf("Now inside event = %v, want 42ms", at)
	}
	if c.Now() != 42*time.Millisecond {
		t.Fatalf("final Now = %v", c.Now())
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	c := New()
	fired := false
	e := c.AfterHandler(time.Second, fireFunc(func() { fired = true }))
	e.Cancel()
	c.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Active() {
		t.Fatal("Active() should report false after Cancel")
	}
	e.Cancel() // idempotent
}

func TestPastEventsClampToNow(t *testing.T) {
	c := New()
	c.AtHandler(time.Second, fireFunc(func() {
		// Scheduling in the past must not move time backwards.
		c.AtHandler(0, fireFunc(func() {
			if c.Now() != time.Second {
				t.Errorf("past event ran at %v", c.Now())
			}
		}))
	}))
	c.Run()
}

func TestRunUntilHorizon(t *testing.T) {
	c := New()
	var fired []time.Duration
	for _, d := range []time.Duration{1, 2, 3, 4, 5} {
		d := d * time.Second
		c.AtHandler(d, fireFunc(func() { fired = append(fired, d) }))
	}
	c.RunUntil(3 * time.Second)
	if len(fired) != 3 {
		t.Fatalf("RunUntil(3s) fired %d events, want 3", len(fired))
	}
	if c.Now() != 3*time.Second {
		t.Fatalf("clock at %v after RunUntil(3s)", c.Now())
	}
	if c.Pending() != 2 {
		t.Fatalf("pending=%d, want 2", c.Pending())
	}
	c.Run()
	if len(fired) != 5 {
		t.Fatalf("remaining events lost: %v", fired)
	}
}

func TestRunUntilHonorsNewlyScheduledEvents(t *testing.T) {
	c := New()
	var got []string
	c.AtHandler(time.Second, fireFunc(func() {
		got = append(got, "a")
		c.AfterHandler(500*time.Millisecond, fireFunc(func() { got = append(got, "b") }))
	}))
	c.RunUntil(2 * time.Second)
	if len(got) != 2 || got[1] != "b" {
		t.Fatalf("chained event within horizon missed: %v", got)
	}
}

func TestRunForIsRelative(t *testing.T) {
	c := New()
	c.AtHandler(time.Second, fireFunc(func() {}))
	c.Run()
	n := 0
	c.AfterHandler(500*time.Millisecond, fireFunc(func() { n++ }))
	c.RunFor(time.Second)
	if n != 1 {
		t.Fatalf("RunFor missed relative event")
	}
	if c.Now() != 2*time.Second {
		t.Fatalf("Now=%v want 2s", c.Now())
	}
}

func TestFiredCounter(t *testing.T) {
	c := New()
	for i := 0; i < 7; i++ {
		c.AfterHandler(time.Duration(i)*time.Millisecond, fireFunc(func() {}))
	}
	c.Run()
	if c.Fired() != 7 {
		t.Fatalf("Fired=%d want 7", c.Fired())
	}
}

func TestNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AtHandler(nil) should panic")
		}
	}()
	New().AtHandler(0, nil)
}

// Property: for any random schedule, events fire in non-decreasing time
// order and the clock never runs backwards.
func TestPropertyOrderedExecution(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New()
		count := int(n%50) + 1
		var last time.Duration = -1
		ok := true
		for i := 0; i < count; i++ {
			c.AtHandler(time.Duration(rng.Intn(1000))*time.Millisecond, fireFunc(func() {
				if c.Now() < last {
					ok = false
				}
				last = c.Now()
			}))
		}
		c.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPendingCountsLiveEventsOnly: Pending reports live events at the
// moment Cancel is called, regardless of where the tombstone sits in the
// queue or when it is lazily reaped. (Regression test: Pending used to
// return the raw queue length, counting cancelled tombstones until the
// scheduler happened to drain past them.)
func TestPendingCountsLiveEventsOnly(t *testing.T) {
	c := New()
	fired := false
	e := c.AtHandler(time.Second, fireFunc(func() { fired = true }))
	far := c.AtHandler(5*time.Second, fireFunc(func() {}))
	if c.Pending() != 2 {
		t.Fatalf("pending=%d want 2", c.Pending())
	}
	e.Cancel()
	// Cancel-then-Pending: the tombstone is excluded immediately, before
	// any Run/Step gets a chance to reap it.
	if c.Pending() != 1 {
		t.Fatalf("pending=%d want 1 immediately after Cancel", c.Pending())
	}
	e.Cancel() // idempotent: must not double-decrement
	if c.Pending() != 1 {
		t.Fatalf("pending=%d want 1 after repeated Cancel", c.Pending())
	}
	c.RunUntil(2 * time.Second)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if c.Pending() != 1 {
		t.Fatalf("pending=%d want 1 (only the live 5s event)", c.Pending())
	}
	if c.Now() != 2*time.Second {
		t.Fatalf("Now=%v want 2s", c.Now())
	}
	far.Cancel()
	if c.Pending() != 0 {
		t.Fatalf("pending=%d want 0 after cancelling the last live event", c.Pending())
	}
}

// TestPendingExcludesCancelledBehindLiveEvents: a cancelled event buried
// behind a live head leaves Pending at Cancel time even though its
// tombstone is reaped only when the queue drains past it; Fired never
// counts it.
func TestPendingExcludesCancelledBehindLiveEvents(t *testing.T) {
	c := New()
	var order []string
	c.AtHandler(3*time.Second, fireFunc(func() { order = append(order, "live") }))
	e := c.AtHandler(5*time.Second, fireFunc(func() { order = append(order, "cancelled") }))
	e.Cancel()
	c.RunUntil(time.Second)
	if c.Pending() != 1 {
		t.Fatalf("pending=%d want 1 (buried tombstone excluded)", c.Pending())
	}
	if e.Active() {
		t.Fatal("a cancelled timer reports Active while its tombstone is queued")
	}
	c.RunUntil(10 * time.Second)
	if len(order) != 1 || order[0] != "live" {
		t.Fatalf("fired=%v want only the live event", order)
	}
	if c.Pending() != 0 {
		t.Fatalf("pending=%d want 0 after the queue drained", c.Pending())
	}
	if c.Fired() != 1 {
		t.Fatalf("Fired=%d want 1: cancelled events must not count as fired", c.Fired())
	}
	// The clock advances to the horizon, not to the cancelled event's time.
	if c.Now() != 10*time.Second {
		t.Fatalf("Now=%v want 10s", c.Now())
	}
}

// TestCancelAfterFireLeavesPendingIntact: a post-fire Cancel (stale by
// definition) must not decrement the live count of unrelated events.
func TestCancelAfterFireLeavesPendingIntact(t *testing.T) {
	c := New()
	e := c.AfterHandler(time.Millisecond, fireFunc(func() {}))
	c.AfterHandler(time.Second, fireFunc(func() {}))
	c.RunUntil(10 * time.Millisecond)
	if c.Pending() != 1 {
		t.Fatalf("pending=%d want 1", c.Pending())
	}
	e.Cancel()
	if c.Pending() != 1 {
		t.Fatalf("pending=%d want 1: post-fire Cancel must not decrement", c.Pending())
	}
}

// TestStepSkipsCancelledRuns: Step pops through consecutive cancelled
// events without firing them and reports false on an all-cancelled queue.
func TestStepSkipsCancelledRuns(t *testing.T) {
	c := New()
	for i := 0; i < 5; i++ {
		c.AfterHandler(time.Duration(i)*time.Millisecond, fireFunc(func() {})).Cancel()
	}
	live := 0
	c.AfterHandler(10*time.Millisecond, fireFunc(func() { live++ }))
	if !c.Step() {
		t.Fatal("Step found no live event behind the cancelled run")
	}
	if live != 1 || c.Pending() != 0 || c.Fired() != 1 {
		t.Fatalf("live=%d pending=%d fired=%d", live, c.Pending(), c.Fired())
	}
	// All-cancelled queue: Step reaps everything and reports false.
	for i := 0; i < 3; i++ {
		c.AfterHandler(time.Millisecond, fireFunc(func() {})).Cancel()
	}
	if c.Step() {
		t.Fatal("Step fired from an all-cancelled queue")
	}
	if c.Pending() != 0 {
		t.Fatalf("pending=%d want 0 after Step reaped the cancelled run", c.Pending())
	}
}

// TestCancelAfterFireIsNoOp: cancelling an event that already fired neither
// panics nor perturbs the clock.
func TestCancelAfterFireIsNoOp(t *testing.T) {
	c := New()
	n := 0
	e := c.AfterHandler(time.Millisecond, fireFunc(func() { n++ }))
	c.Run()
	e.Cancel()
	if n != 1 {
		t.Fatalf("fired %d times", n)
	}
	if e.Active() {
		t.Fatal("a fired timer reports Active")
	}
	var zero Timer
	zero.Cancel() // the zero Timer is inert
	if zero.Active() {
		t.Fatal("zero Timer reports Active")
	}
}

func TestNegativeAfterClampsToZero(t *testing.T) {
	c := New()
	fired := false
	c.AfterHandler(-time.Second, fireFunc(func() { fired = true }))
	c.Run()
	if !fired || c.Now() != 0 {
		t.Fatalf("negative After mishandled: fired=%v now=%v", fired, c.Now())
	}
}
