package simclock

import (
	"sync"
	"testing"
	"time"
)

func TestLoopSerializesPosts(t *testing.T) {
	loop := NewLoop(New())
	var mu sync.Mutex
	var got []int
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop.Post(func() {
				mu.Lock()
				got = append(got, i)
				mu.Unlock()
			})
		}()
	}
	done := make(chan struct{})
	go func() {
		loop.Run()
		close(done)
	}()
	wg.Wait()
	loop.Post(func() { loop.Close() })
	<-done
	if len(got) != 100 {
		t.Fatalf("executed %d of 100 posts", len(got))
	}
}

func TestLoopCloseDropsLatePosts(t *testing.T) {
	loop := NewLoop(New())
	loop.Close()
	ran := false
	loop.Post(func() { ran = true })
	loop.Run() // returns immediately: closed with empty queue
	if ran {
		t.Fatal("post after close executed")
	}
}

// TestLoopTimerFiresOnTime: a timer armed on the loop fires no earlier than
// its wall-clock instant, and its handler sees Now equal to the instant it
// was scheduled for, as under the simulator.
func TestLoopTimerFiresOnTime(t *testing.T) {
	clock := New()
	loop := NewLoop(clock)
	var due, firedAt, wall time.Duration
	loop.Post(func() {
		armed := time.Now()
		due = clock.Now() + 5*time.Millisecond
		clock.AfterHandler(5*time.Millisecond, fireFunc(func() {
			firedAt = clock.Now()
			wall = time.Since(armed)
			loop.Close()
		}))
	})
	done := make(chan struct{})
	go func() {
		loop.Run()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("loop timer never fired")
	}
	if firedAt != due {
		t.Errorf("handler saw Now %v, want its scheduled instant %v", firedAt, due)
	}
	if wall < 5*time.Millisecond {
		t.Errorf("fired %v after arming, want >= 5ms", wall)
	}
}

// TestLoopCancelledTimerNeverFires: a timer whose deadline has passed while
// the loop was busy is still pending, and cancelling it means it never
// fires — the loop only runs due events between posted functions.
func TestLoopCancelledTimerNeverFires(t *testing.T) {
	clock := New()
	loop := NewLoop(clock)
	fired := false
	loop.Post(func() {
		tm := clock.AfterHandler(time.Millisecond, fireFunc(func() { fired = true }))
		time.Sleep(20 * time.Millisecond)
		if !tm.Active() {
			t.Error("timer past its deadline but not yet run reports inactive")
		}
		tm.Cancel()
		clock.AfterHandler(50*time.Millisecond, fireFunc(loop.Close))
	})
	loop.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}
