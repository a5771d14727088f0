package simclock

import (
	"math/rand"
	"testing"
	"time"
)

// countHandler is a reusable EventHandler recording its firing times.
type countHandler struct {
	fires []time.Duration
}

func (h *countHandler) Fire(now time.Duration) { h.fires = append(h.fires, now) }

// TestHandlerEventsFireInOrder checks that handlers of different types
// scheduled for one instant interleave in scheduling order.
func TestHandlerEventsFireInOrder(t *testing.T) {
	c := New()
	var order []string
	h := &countHandler{}
	c.AtHandler(time.Second, fireFunc(func() { order = append(order, "closure") }))
	c.AtHandler(time.Second, h)
	c.AtHandler(time.Second, fireFunc(func() { order = append(order, "closure2") }))
	c.Run()
	if len(h.fires) != 1 || h.fires[0] != time.Second {
		t.Fatalf("handler fires = %v, want one at 1s", h.fires)
	}
	if len(order) != 2 || order[0] != "closure" || order[1] != "closure2" {
		t.Fatalf("closure order = %v", order)
	}
}

// TestEventPoolReuse pins the free-list behavior: after a handler event
// fires, its Event is recycled and the next handler schedule reuses it
// instead of allocating.
func TestEventPoolReuse(t *testing.T) {
	c := New()
	h := &countHandler{}
	c.AfterHandler(time.Millisecond, h)
	c.Run()
	if got := c.FreeListLen(); got != 1 {
		t.Fatalf("free list after fire = %d, want 1", got)
	}
	c.AfterHandler(time.Millisecond, h)
	if got := c.FreeListLen(); got != 0 {
		t.Fatalf("free list after reschedule = %d, want 0 (event reused)", got)
	}
	c.Run()
	if len(h.fires) != 2 {
		t.Fatalf("fires = %d, want 2", len(h.fires))
	}
}

// TestStaleTimerCancelIsInert is the generation-counter guarantee: a Timer
// held across its event's firing and recycling must not cancel the new
// occupant of the pooled Event.
func TestStaleTimerCancelIsInert(t *testing.T) {
	c := New()
	h1, h2 := &countHandler{}, &countHandler{}
	stale := c.AfterHandler(time.Millisecond, h1)
	c.Run()
	if len(h1.fires) != 1 {
		t.Fatalf("h1 fired %d times, want 1", len(h1.fires))
	}
	// The pooled event is recycled for h2; the stale handle must be inert.
	fresh := c.AfterHandler(time.Millisecond, h2)
	if stale.Active() {
		t.Fatal("stale Timer reports Active after its event was recycled")
	}
	stale.Cancel()
	if !fresh.Active() {
		t.Fatal("stale Cancel deactivated the recycled event's new generation")
	}
	c.Run()
	if len(h2.fires) != 1 {
		t.Fatalf("h2 fired %d times, want 1 (stale Cancel must not suppress it)", len(h2.fires))
	}
}

// TestTimerCancelLiveGeneration checks the non-stale path still cancels.
func TestTimerCancelLiveGeneration(t *testing.T) {
	c := New()
	h := &countHandler{}
	tm := c.AfterHandler(time.Millisecond, h)
	tm.Cancel()
	if tm.Active() {
		t.Fatal("cancelled Timer reports Active")
	}
	c.Run()
	if len(h.fires) != 0 {
		t.Fatalf("cancelled handler fired %d times", len(h.fires))
	}
	// The reaped event must have returned to the pool.
	if got := c.FreeListLen(); got != 1 {
		t.Fatalf("free list after reap = %d, want 1", got)
	}
}

// rearmHandler re-arms itself from inside Fire — the simTCP RTO pattern —
// exercising recycle-before-run: the event being fired is already back on
// the free-list when Fire runs, so the re-arm reuses it.
type rearmHandler struct {
	c     *Clock
	left  int
	timer Timer
	fires int
}

func (h *rearmHandler) Fire(now time.Duration) {
	h.fires++
	if h.left--; h.left > 0 {
		h.timer = h.c.AfterHandler(time.Millisecond, h)
	}
}

func TestHandlerRearmFromFire(t *testing.T) {
	c := New()
	h := &rearmHandler{c: c, left: 5}
	h.timer = c.AfterHandler(time.Millisecond, h)
	c.Run()
	if h.fires != 5 {
		t.Fatalf("fires = %d, want 5", h.fires)
	}
	// One event object should have served all five arms.
	if got := c.FreeListLen(); got != 1 {
		t.Fatalf("free list = %d, want 1", got)
	}
}

// TestPoolStress drives a large random mix of schedules, cancels, re-arms
// and stale cancels through the pool. Run under -race in CI; the property
// is exact: every schedule fires exactly once unless a cancel landed while
// its handle was still live — a stale cancel (handle held past the event's
// recycling) must suppress nothing.
func TestPoolStress(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := New()
	var fired, cancelledLive int
	h := &funcHandler{fn: func(time.Duration) { fired++ }}
	var stale []Timer
	const n = 20000
	for i := 0; i < n; i++ {
		d := time.Duration(rng.Intn(50)) * time.Millisecond
		tm := c.AfterHandler(d, h)
		switch rng.Intn(4) {
		case 0:
			// Cancel immediately: the handle is certainly live.
			tm.Cancel()
			cancelledLive++
		case 1:
			// Hold the handle past recycling, then cancel it later. Some of
			// these cancels land while the event is still pending (a real
			// cancel), most after it fired and was recycled (must be inert);
			// Active() distinguishes the two at cancel time.
			stale = append(stale, tm)
		}
		if len(stale) > 32 {
			for _, s := range stale {
				if s.Active() {
					cancelledLive++
				}
				s.Cancel()
			}
			stale = stale[:0]
		}
		if rng.Intn(8) == 0 {
			c.RunFor(time.Duration(rng.Intn(100)) * time.Millisecond)
		}
	}
	c.Run()
	if want := n - cancelledLive; fired != want {
		t.Fatalf("fired %d, want %d (%d scheduled, %d cancelled while live)",
			fired, want, n, cancelledLive)
	}
	if c.Pending() != 0 {
		t.Fatalf("pending = %d after Run", c.Pending())
	}
}

type funcHandler struct{ fn func(time.Duration) }

func (h *funcHandler) Fire(now time.Duration) { h.fn(now) }

// TestPoolStressDeterministic pins exact fire counts for the subtle case:
// handles cancelled before their event fires suppress exactly that event,
// handles cancelled after are no-ops.
func TestPoolStressDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := New()
	fired := map[int]int{}
	live := map[int]Timer{}
	cancelled := map[int]bool{}
	n := 5000
	for i := 0; i < n; i++ {
		i := i
		h := &funcHandler{fn: func(time.Duration) { fired[i]++ }}
		live[i] = c.AfterHandler(time.Duration(rng.Intn(200))*time.Millisecond, h)
		if rng.Intn(3) == 0 {
			// Cancel a random earlier schedule — possibly already fired
			// (stale handle), possibly still pending (real cancel).
			j := rng.Intn(i + 1)
			if tm, ok := live[j]; ok && tm.Active() {
				cancelled[j] = true
			}
			live[j].Cancel()
		}
		if rng.Intn(16) == 0 {
			c.RunFor(50 * time.Millisecond)
		}
	}
	c.Run()
	for i := 0; i < n; i++ {
		want := 1
		if cancelled[i] {
			want = 0
		}
		if fired[i] != want {
			t.Fatalf("event %d fired %d times, want %d (cancelled=%v)", i, fired[i], want, cancelled[i])
		}
	}
}
