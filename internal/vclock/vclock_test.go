package vclock

import (
	"sync"
	"testing"
	"time"

	"realtracer/internal/simclock"
)

// fireFunc adapts a closure to a simclock.EventHandler.
type fireFunc func()

func (f fireFunc) Fire(time.Duration) { f() }

func TestSimAdapter(t *testing.T) {
	sc := simclock.New()
	var c Clock = Sim{C: sc}
	fired := false
	timer := c.AfterHandler(time.Second, fireFunc(func() { fired = true }))
	if c.Now() != 0 {
		t.Fatal("origin not zero")
	}
	sc.Run()
	if !fired {
		t.Fatal("sim timer never fired")
	}
	timer.Cancel() // post-fire cancel is a no-op
}

func TestSimTimerCancel(t *testing.T) {
	sc := simclock.New()
	var c Clock = Sim{C: sc}
	fired := false
	timer := c.AfterHandler(time.Second, fireFunc(func() { fired = true }))
	timer.Cancel()
	sc.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestLoopSerializesPosts(t *testing.T) {
	loop := NewLoop()
	var mu sync.Mutex
	var got []int
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		i := i
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
	loop := NewLoop()
	loop.Close()
	ran := false
	loop.Post(func() { ran = true })
	loop.Run() // returns immediately: closed with empty queue
	if ran {
		t.Fatal("post after close executed")
	}
}

func TestRealTimerFires(t *testing.T) {
	loop := NewLoop()
	clock := NewReal(loop)
	done := make(chan struct{})
	clock.AfterHandler(5*time.Millisecond, fireFunc(func() {
		if clock.Now() < 4*time.Millisecond {
			t.Error("fired too early")
		}
		loop.Close()
		close(done)
	}))
	go loop.Run()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("real timer never fired")
	}
}

func TestRealTimerCancel(t *testing.T) {
	loop := NewLoop()
	clock := NewReal(loop)
	fired := make(chan struct{}, 1)
	timer := clock.AfterHandler(10*time.Millisecond, fireFunc(func() { fired <- struct{}{} }))
	timer.Cancel()
	timer.Cancel() // idempotent
	go loop.Run()
	defer loop.Close()
	select {
	case <-fired:
		t.Fatal("cancelled real timer fired")
	case <-time.After(50 * time.Millisecond):
	}
}
