package player

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"realtracer/internal/stats"
)

// jitterOfGaps is the jitter metric as it was computed while the gaps were
// collected into a slice first: stats.StdDev of the gap list. It is the
// oracle for jitterMs.
func jitterOfGaps(times []time.Duration) float64 {
	if len(times) < 3 {
		return 0
	}
	gaps := make([]float64, 0, len(times)-1)
	for i := 1; i < len(times); i++ {
		gaps = append(gaps, float64((times[i]-times[i-1]).Microseconds())/1000)
	}
	return stats.StdDev(gaps)
}

// TestJitterMatchesStdDevOfGaps: computing the jitter without a gap slice
// must give the bits StdDev of the slice gave — the value lands in every
// record and every receiver report — on playout records of every length
// the metric sees, evenly paced or not, with gaps of any size, out of order
// (decode noise reorders frames) and repeated.
func TestJitterMatchesStdDevOfGaps(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := range 3000 {
		n := rng.Intn(200)
		times := make([]time.Duration, n)
		at := time.Duration(rng.Int63n(int64(time.Hour)))
		for i := range times {
			switch rng.Intn(4) {
			case 0:
				at += time.Second / 30
			case 1:
				at += time.Duration(rng.Int63n(int64(2 * time.Second)))
			case 2:
				at -= time.Duration(rng.Int63n(int64(20 * time.Millisecond)))
			}
			times[i] = at
		}
		got, want := jitterMs(times), jitterOfGaps(times)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d (%d frames): jitterMs %v, StdDev of the gaps %v", trial, n, got, want)
		}
	}
}
