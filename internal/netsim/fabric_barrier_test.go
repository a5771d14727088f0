package netsim

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// ringHosts is the population of ringRig: enough hosts that every shard of
// an 8-shard fabric owns one.
const ringHosts = 8

// ringRig builds a world in which every shard has work in most windows but
// not all: host j lives on shard j%shards and sends host j+1 150 packets,
// one every 20+7j ms of virtual time, over a lossy, jittery route — so the
// slow senders' shards sit some early windows out and the fast senders'
// shards the late ones. got[j] collects the delivery times at host j; only
// its owner shard appends to it, so the slices are as isolated as the
// shards are.
func ringRig(shards int) (fab *Fabric, got [][]time.Duration) {
	route := Route{OneWayDelay: 60 * time.Millisecond, LossRate: 0.1, Jitter: 5 * time.Millisecond, CapacityKbps: 500}
	fab = NewFabric(shards, StaticRoute(route), 42)
	name := func(j int) string { return fmt.Sprintf("h%d", j%ringHosts) }
	for j := 0; j < ringHosts; j++ {
		fab.AddHost(j%shards, HostConfig{Name: name(j), Access: DefaultAccessProfile(AccessT1LAN)})
	}
	fab.Freeze(25 * time.Millisecond)
	got = make([][]time.Duration, ringHosts)
	for j := 0; j < ringHosts; j++ {
		j, s := j, j%shards
		fab.Net(s).Register(Addr(name(j)+":1"), func(*Packet) {
			got[j] = append(got[j], fab.Clock(s).Now())
		})
		from, to := Addr(name(j)+":9"), Addr(name(j+1)+":1")
		for i := 0; i < 150; i++ {
			at := time.Duration(i*(20+7*j)) * time.Millisecond
			fab.Clock(s).AtHandler(at, fireFunc(func(time.Duration) {
				fab.Net(s).Send(leased(fab.Net(s), Packet{From: from, To: to, Size: 400, Payload: "x"}))
			}))
		}
	}
	return fab, got
}

// ringTimes runs ringRig to completion and returns the delivery times.
func ringTimes(shards int) [][]time.Duration {
	fab, got := ringRig(shards)
	fab.Run(nil)
	return got
}

// stopAfter returns a Run stop function that says stop on its k+1-th call,
// i.e. once k windows have run.
func stopAfter(k int) func() bool {
	calls := 0
	return func() bool {
		calls++
		return calls > k
	}
}

// settlesTo waits up to a second for the goroutine count to come back down
// to want: a worker that has been told to exit may still be returning.
func settlesTo(want int) (got int) {
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		if got = runtime.NumGoroutine(); got <= want || time.Now().After(deadline) {
			return got
		}
	}
}

// TestFabricRunLeavesNoWorkers: the workers belong to one Run. However it
// ends — drained, stopped, or panicking — none of them outlives it. A
// leaked worker that is still polling is worse than a leaked parked one: it
// would eat a core under everything the process does afterwards.
func TestFabricRunLeavesNoWorkers(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(fab *Fabric)
	}{
		{"drained", func(fab *Fabric) { fab.Run(nil) }},
		{"stopped", func(fab *Fabric) { fab.Run(stopAfter(10)) }},
		{"panicked", func(fab *Fabric) {
			fab.Clock(3).AtHandler(500*time.Millisecond, fireFunc(func(time.Duration) { panic("boom") }))
			defer func() {
				if _, ok := recover().(ShardPanic); !ok {
					t.Error("Run did not panic with a ShardPanic")
				}
			}()
			fab.Run(nil)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fab, _ := ringRig(4)
			before := runtime.NumGoroutine()
			tc.run(fab)
			if after := settlesTo(before); after > before {
				t.Fatalf("%d goroutines before Run, %d a second after it", before, after)
			}
		})
	}
}

// TestFabricRunResumes: Run can be re-entered. A world stopped after k
// windows and run again delivers every packet at the instant one
// uninterrupted Run delivers it.
func TestFabricRunResumes(t *testing.T) {
	want := ringTimes(1)
	for _, shards := range []int{2, 4} {
		for _, k := range []int{1, 7, 100} {
			fab, got := ringRig(shards)
			fab.Run(stopAfter(k))
			if w := fab.WindowStats().Windows; w != uint64(k) {
				t.Fatalf("shards=%d: stopped after %d windows, asked for %d", shards, w, k)
			}
			fab.Run(nil)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("shards=%d stopped after %d windows and resumed: delivery times differ from one uninterrupted run", shards, k)
			}
		}
	}
}

// TestFabricOversubscribed: with more shards than processors the waiters
// outnumber the Ps they poll on. The yields in the spin must let the shards
// that have work run: the world completes (no livelock) and is the same
// world.
func TestFabricOversubscribed(t *testing.T) {
	want := ringTimes(1)
	for _, tc := range []struct{ procs, shards int }{{1, 4}, {2, 8}} {
		t.Run(fmt.Sprintf("procs=%d/shards=%d", tc.procs, tc.shards), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			done := make(chan [][]time.Duration, 1)
			go func() { done <- ringTimes(tc.shards) }()
			select {
			case got := <-done:
				if !reflect.DeepEqual(got, want) {
					t.Error("delivery times differ from the shards=1 run")
				}
			case <-time.After(60 * time.Second):
				t.Fatal("run did not complete: the barrier livelocked with spinners outnumbering processors")
			}
		})
	}
}

// TestFabricWindowStats pins the window counters: exact and repeatable for
// a fixed world, partition-invariant where the protocol is (the window
// sequence and the events in it), degenerate in the documented way at one
// shard, and inert — reading them every window changes no delivery.
func TestFabricWindowStats(t *testing.T) {
	run := func(shards int, stop func(*Fabric) func() bool) (WindowStats, [][]time.Duration) {
		fab, got := ringRig(shards)
		if stop != nil {
			fab.Run(stop(fab))
		} else {
			fab.Run(nil)
		}
		st := fab.WindowStats()
		if st.Fired != fab.Fired() {
			t.Errorf("shards=%d: Fired %d, but the clocks fired %d events", shards, st.Fired, fab.Fired())
		}
		st.ParkedWakes = 0 // the one count that depends on the host's scheduling
		return st, got
	}
	one, want := run(1, nil)
	if one.Windows == 0 || one.Critical != one.Fired || one.Solo != one.Windows || one.Skipped != 0 {
		t.Errorf("shards=1: %+v, want every event critical, every window solo, nothing skipped", one)
	}
	four, _ := run(4, nil)
	if again, _ := run(4, nil); again != four {
		t.Errorf("shards=4: counters differ between two runs of one world:\n%+v\n%+v", four, again)
	}
	if four.Windows != one.Windows || four.Fired != one.Fired {
		t.Errorf("window sequence depends on the partition: shards=4 %+v, shards=1 %+v", four, one)
	}
	if four.Critical >= four.Fired || four.Critical*4 < four.Fired {
		t.Errorf("shards=4: critical path %d of %d events is outside (1/4, 1)", four.Critical, four.Fired)
	}
	if four.Skipped == 0 {
		t.Error("shards=4: no shard ever sat a window out; the skip path went untested")
	}
	var reads int
	read, got := run(4, func(fab *Fabric) func() bool {
		return func() bool {
			reads++
			_ = fab.WindowStats().String()
			return false
		}
	})
	if read != four || !reflect.DeepEqual(got, want) || reads == 0 {
		t.Errorf("reading the counters every window changed the run: %+v vs %+v", read, four)
	}
}

// TestParkerLateUnpark: an unpark that arrives after the waiter has moved on
// to its next wait — the writer was descheduled between its store and the
// unpark for longer than the spin budget — must not end that wait. await
// returns only on having read the value it waits for.
func TestParkerLateUnpark(t *testing.T) {
	p := newParker()
	var word atomic.Int32
	done := make(chan int32, 1)
	go func() {
		p.await(&word, 1)
		done <- word.Load()
	}()
	// parked waits until the waiter has spent its spin budget and blocked.
	parked := func() {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !p.parked.Load(); runtime.Gosched() {
			select {
			case got := <-done:
				t.Fatalf("a late unpark ended a wait for 1 with the word at %d", got)
			default:
			}
			if time.Now().After(deadline) {
				t.Fatal("the waiter never parked")
			}
		}
	}
	for late := 0; late < 3; late++ {
		parked()
		if !p.unpark() {
			t.Fatal("unpark did not find the parked waiter")
		}
	}
	parked()
	word.Store(1)
	p.unpark()
	if got := <-done; got != 1 {
		t.Fatalf("await returned with the word at %d, want 1", got)
	}
	if p.parked.Load() || len(p.wake) != 0 {
		t.Errorf("await left the parker armed: parked=%v, %d tokens queued", p.parked.Load(), len(p.wake))
	}
}

// TestFabricSurvivesStrayUnparks drives the barrier with a goroutine that
// unparks every waiter, control and workers, as fast as it can: every late
// unpark the hand-off could ever see. Each shard in turn holds a window open
// until a few of them have landed on a parked waiter, so they land mid-window
// on the control goroutine (a worker stalls) and on the workers (shard 0
// stalls). A woken waiter that took the wake-up for its condition would read
// shards that are still running or run a window nobody released; the world
// must instead complete and be the same world.
func TestFabricSurvivesStrayUnparks(t *testing.T) {
	want := ringTimes(1)
	for _, shards := range []int{2, 4} {
		fab, got := ringRig(shards)
		var strays atomic.Int64
		stall := fireFunc(func(time.Duration) {
			seen := strays.Load()
			for deadline := time.Now().Add(10 * time.Second); strays.Load() < seen+3; runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Error("no waiter parked while a shard held its window open")
					return
				}
			}
		})
		for s := 0; s < shards; s++ {
			for k := 0; k < 5; k++ {
				// 100 ms apart, four windows: never two shards in one window.
				fab.Clock(s).AtHandler(time.Duration(400*k+100*s+50)*time.Millisecond, stall)
			}
		}
		b := fab.newBarrier()
		quit, exited := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(exited)
			for {
				select {
				case <-quit:
					return
				default:
				}
				if b.ctl.unpark() {
					strays.Add(1)
				}
				for i := range b.workers {
					if b.workers[i].unpark() {
						strays.Add(1)
					}
				}
				runtime.Gosched()
			}
		}()
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer b.close()
			b.run(nil)
		}()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("shards=%d: run did not complete under stray unparks", shards)
		}
		close(quit)
		<-exited
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: delivery times differ from the shards=1 run", shards)
		}
	}
}
