package simclock

import (
	"io"
	"strings"
	"testing"
	"time"

	"realtracer/internal/snap"
)

type tick struct{ int } // not zero-sized: two ticks are two pointers

func (*tick) Fire(time.Duration) {}

// TestCheckOwnedCountsEveryEvent: after an encoding walk, every pending event
// must have been persisted exactly once, and the first that was not, in seq
// order, fails the walk by handler type, At and seq. A timer walked with a
// handler that is not its event's fails where it is walked. The walk is
// read-only whatever it finds.
func TestCheckOwnedCountsEveryEvent(t *testing.T) {
	c := New()
	a, b := &tick{}, &tick{}
	ta := c.AtHandler(time.Second, a)
	tb := c.AtHandler(2*time.Second, b)
	c.AtHandler(3*time.Second, fireFunc(func() {})) // owned through Pendings
	c.AtHandler(4*time.Second, b).Cancel()          // not pending: nobody owns it
	walk := func(owners func(sc *snap.Codec)) error {
		sc := snap.NewEncoder(io.Discard)
		c.Sync(sc)
		owners(sc)
		c.CheckOwned(sc)
		return sc.Err()
	}
	byPendings := func(sc *snap.Codec) {
		for _, pe := range c.Pendings() {
			if _, ok := pe.Handler.(fireFunc); ok {
				c.SyncEvent(sc, &pe)
			}
		}
	}
	cases := []struct {
		name   string
		owners func(sc *snap.Codec)
		want   string // substring of the error, "" = the walk succeeds
	}{
		{"each once", func(sc *snap.Codec) { c.SyncTimer(sc, &ta, a); c.SyncTimer(sc, &tb, b); byPendings(sc) }, ""},
		{"timer unowned", func(sc *snap.Codec) { c.SyncTimer(sc, &ta, a); byPendings(sc) },
			"pending event at 2s (seq 1) with handler type *simclock.tick is persisted by 0 owners, want 1"},
		{"event unowned", func(sc *snap.Codec) { c.SyncTimer(sc, &ta, a); c.SyncTimer(sc, &tb, b) },
			"pending event at 3s (seq 2) with handler type simclock.fireFunc is persisted by 0 owners, want 1"},
		{"timer twice", func(sc *snap.Codec) {
			c.SyncTimer(sc, &tb, b)
			c.SyncTimer(sc, &ta, a)
			c.SyncTimer(sc, &tb, b)
			byPendings(sc)
		},
			"pending event at 2s (seq 1) with handler type *simclock.tick is persisted by 2 owners, want 1"},
		{"event twice", func(sc *snap.Codec) { c.SyncTimer(sc, &ta, a); c.SyncTimer(sc, &tb, b); byPendings(sc); byPendings(sc) },
			"pending event at 3s (seq 2) with handler type simclock.fireFunc is persisted by 2 owners, want 1"},
		{"another's handler", func(sc *snap.Codec) { c.SyncTimer(sc, &ta, b) },
			"pending event at 1s (seq 0) with handler type *simclock.tick is walked as a timer of *simclock.tick"},
	}
	for _, tc := range cases {
		err := walk(tc.owners)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: want error %q, got %v", tc.name, tc.want, err)
		}
		if c.Pending() != 3 || c.Fired() != 0 || c.Now() != 0 {
			t.Fatalf("%s: the walk moved the clock: %d pending, %d fired, now %v", tc.name, c.Pending(), c.Fired(), c.Now())
		}
	}
}
