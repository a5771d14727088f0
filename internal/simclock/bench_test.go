package simclock

import (
	"fmt"
	"testing"
	"time"
)

// benchTick is a self-re-arming handler: the steady-state shape of the
// simulation's dominant timer population (per-session pace ticks, switch
// checks, RTO, gossip).
type benchTick struct {
	c    *Clock
	d    time.Duration
	n    int
	fire int
}

func (h *benchTick) Fire(now time.Duration) {
	h.fire++
	h.c.AfterHandler(h.d, h)
}

// BenchmarkSchedulerChurn measures the event queue under the workload that
// dominates a study run: a large pending population of recurring timers
// (steady/ arms re-arm from inside Fire) and transient arm-then-cancel
// churn (cancel/ arms never fire). The sub-benchmark names keep the
// "wheel" segment they had when a second engine ran beside it, so the
// recorded trajectory stays comparable.
func BenchmarkSchedulerChurn(b *testing.B) {
	for _, pending := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("steady/wheel/pending=%d", pending), func(b *testing.B) {
			c := New()
			period := time.Duration(pending) * 100 * time.Microsecond
			for i := 0; i < pending; i++ {
				h := &benchTick{c: c, d: period}
				c.AfterHandler(time.Duration(i)*100*time.Microsecond, h)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Step()
			}
		})
		b.Run(fmt.Sprintf("cancel/wheel/pending=%d", pending), func(b *testing.B) {
			c := New()
			h := &benchTick{c: c, d: time.Hour}
			for i := 0; i < pending; i++ {
				c.AfterHandler(time.Duration(i)*100*time.Microsecond, &benchTick{c: c, d: time.Hour})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tm := c.AfterHandler(50*time.Millisecond, h)
				tm.Cancel()
			}
		})
	}
}
