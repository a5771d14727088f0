//go:build unix

package netsim

import (
	"syscall"
	"testing"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestFabricIdleShardParks: a worker whose shard has nothing to do polls
// for the spin budget and then parks. Here all the traffic lives on shard 0
// and keeps it busy for a quarter second of wall time; if the idle worker
// polled the whole run the process would burn two CPU-seconds per second.
func TestFabricIdleShardParks(t *testing.T) {
	fab := fabricRig(2, Route{OneWayDelay: 100 * time.Millisecond})
	const busyFor = 250 * time.Millisecond
	start := time.Now()
	var tick fireFunc
	tick = func(time.Duration) {
		if time.Since(start) < busyFor {
			fab.Clock(0).AfterHandler(time.Millisecond, tick)
		}
	}
	fab.Clock(0).AfterHandler(0, tick)
	cpu0 := cpuTime(t)
	fab.Run(nil)
	wall, cpu := time.Since(start), cpuTime(t)-cpu0
	if wall < 200*time.Millisecond {
		t.Fatalf("run lasted %v, too short to tell a parked worker from a polling one", wall)
	}
	if st := fab.WindowStats(); st.Skipped != st.Windows {
		t.Fatalf("shard 1 was released in %d of %d windows; it should have had nothing to do", st.Windows-st.Skipped, st.Windows)
	}
	t.Logf("wall %v, cpu %v (%.2fx)", wall, cpu, float64(cpu)/float64(wall))
	if float64(cpu) > 1.3*float64(wall) {
		t.Errorf("cpu %v over %v of wall (%.2fx, want < 1.3x): the idle worker polled instead of parking", cpu, wall, float64(cpu)/float64(wall))
	}
}
