package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"realtracer/internal/trace"
)

// --- order statistics ---

// quantile interpolates the q-quantile of xs the way Python's
// statistics.quantiles(method="exclusive") does, so the spreads the harness
// prints are the ones the driver computes.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q*float64(len(s)+1) - 1
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(len(s)-1) {
		return s[len(s)-1]
	}
	lo := int(pos)
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// dist is the five-number summary printed beside every timing. With the
// handful of reps a run affords only the median is reported as the metric:
// no percentile has ten samples beyond it.
type dist struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	return dist{
		N:      len(xs),
		Min:    quantile(xs, 0),
		Q1:     quantile(xs, 0.25),
		Median: quantile(xs, 0.5),
		Q3:     quantile(xs, 0.75),
		Max:    quantile(xs, 1),
	}
}

// --- record digest ---

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// digest is an order-sensitive FNV-1a hash of a record stream: two runs
// produced the same records in the same order iff their digests agree (up
// to hash collisions). It is the harness's determinism and equivalence
// check, and the value two commits are compared on.
type digest uint64

func newDigest() digest { return fnvOffset }

func (d *digest) u64(v uint64) {
	h := uint64(*d)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	*d = digest(h)
}

func (d *digest) str(s string) {
	h := uint64(*d)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	h ^= 0xff // field separator, so ("ab","c") != ("a","bc")
	h *= fnvPrime
	*d = digest(h)
}

// records folds a whole record slice, in order.
func (d *digest) records(recs []*trace.Record) {
	for _, r := range recs {
		d.record(r)
	}
}

func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digest) flag(v bool) {
	if v {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

// record folds every observable field of r into the digest (Ordinal is the
// sharded merge's tiebreak, not an observable, and stays out — like the CSV).
func (d *digest) record(r *trace.Record) {
	d.str(r.User)
	d.str(r.Country)
	d.str(r.State)
	d.str(r.Region)
	d.str(r.Access)
	d.str(r.PCClass)
	d.str(r.ClipURL)
	d.str(r.Server)
	d.str(r.ServerCountry)
	d.str(r.ServerRegion)
	d.flag(r.Unavailable)
	d.flag(r.Failed)
	d.str(r.FailReason)
	d.str(r.Protocol)
	d.f64(r.EncodedKbps)
	d.f64(r.EncodedFPS)
	d.f64(r.MeasuredKbps)
	d.f64(r.MeasuredFPS)
	d.f64(r.JitterMs)
	d.u64(uint64(r.FramesPlayed))
	d.u64(uint64(r.FramesDroppedLate))
	d.u64(uint64(r.FramesDroppedCPU))
	d.u64(uint64(r.FramesLost))
	d.u64(uint64(r.FramesCorrupted))
	d.u64(uint64(r.Rebuffers))
	d.u64(uint64(r.RebufferTime))
	d.u64(uint64(r.BufferingTime))
	d.f64(r.CPUUtilization)
	d.u64(uint64(r.Switches))
	d.flag(r.Rated)
	d.f64(r.Rating)
	d.str(r.Dynamics)
	d.str(r.Policy)
	d.f64(r.StartSec)
	d.f64(r.EndSec)
}

// --- process accounting ---

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is this process's resident-set high-water mark. It is read
// from /proc/self/status (VmHWM) rather than getrusage: Linux carries
// ru_maxrss across fork and exec, so a set-up probe would report its
// parent's footprint.
func peakRSSMiB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kib float64
			if _, err := fmt.Sscanf(rest, "%g kB", &kib); err == nil {
				return kib / 1024
			}
		}
	}
	return 0
}

// memCounters is the slice of runtime.MemStats a rep is charged by.
type memCounters struct {
	mallocs, bytes uint64
	gcCycles       uint32
	heapSys        uint64
}

func readMem() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{
		mallocs:  m.Mallocs,
		bytes:    m.TotalAlloc,
		gcCycles: m.NumGC,
		heapSys:  m.HeapSys,
	}
}

// --- noise guard ---

// calibrator is a fixed piece of CPU- and memory-bound work (an integer LCG
// then a dependent pointer chase through 16 MiB) whose duration says how
// fast the host is *right now*. This shared box shows bursts of +20–60%
// between otherwise steady reps; a rep that starts inside one is re-run
// rather than averaged in.
//
// The same readings say how fast the host was over the whole run. Its slow
// phases last minutes, far longer than a run — the memory system, not the
// CPU: a pure ALU loop repeats to 2% through them while the simulator, which
// chases pointers through 100–200 MiB, slows by 15–45% — so no statistic of
// one run's reps can see them, and the median of ten runs moved 14–27%
// between one sweep and the next. The median reading of a run tracks them
// (correlation 0.8 run against run): hostFactor turns a run's timings into
// seconds on a reference host whose reading is refCalib, which brought those
// shifts down to 5–13%.
type calibrator struct {
	next     []uint32
	chase    int
	lcgIter  int
	ref      float64   // ns: the reference host's reading (refCalib, scaled for toy)
	readings []float64 // ns, every reading so far
	sink     uint64
}

const (
	calibSlots   = 4 << 20 // uint32 each: 16 MiB, past this box's L2/L3
	calibChase   = 250_000
	calibLCGIter = 12_000_000
	// refCalib defines the reference host the timings are reported on: one on
	// which a reading takes this long (this box, between its slow phases).
	refCalib = 40 * time.Millisecond
)

// newCalibrator builds the full-size calibrator, or (toy) one a thousand
// times lighter for the tests.
func newCalibrator(toy bool) *calibrator {
	c := &calibrator{next: make([]uint32, calibSlots), chase: calibChase, lcgIter: calibLCGIter, ref: float64(refCalib)}
	if toy {
		c = &calibrator{next: make([]uint32, calibSlots>>10), chase: calibChase >> 10, lcgIter: calibLCGIter >> 10, ref: float64(refCalib >> 10)}
	}
	// Sattolo's algorithm: one cycle through every slot, so the chase never
	// settles into a cached sub-loop.
	for i := range c.next {
		c.next[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := len(c.next) - 1; i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int((x >> 33) % uint64(i))
		c.next[i], c.next[j] = c.next[j], c.next[i]
	}
	return c
}

// run takes a reading: two back-to-back passes, the faster of which counts
// (the first re-warms caches and TLB after whatever ran before, so the
// reading measures the host, not the previous rep's footprint).
func (c *calibrator) run() time.Duration {
	d := min(c.pass(), c.pass())
	c.readings = append(c.readings, float64(d))
	return d
}

func (c *calibrator) pass() time.Duration {
	t0 := time.Now()
	x := c.sink | 1
	for i := 0; i < c.lcgIter; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	p := uint32(x>>40) % uint32(len(c.next))
	for i := 0; i < c.chase; i++ {
		p = c.next[p]
	}
	c.sink = x + uint64(p)
	return time.Since(t0)
}

// typical is the median reading so far, in ns.
func (c *calibrator) typical() float64 { return median(c.readings) }

// hostFactor is what a duration measured in this process is multiplied by to
// express it on the reference host: below 1 while the host is slow.
func (c *calibrator) hostFactor() float64 {
	if t := c.typical(); t > 0 {
		return c.ref / t
	}
	return 1
}

// noisy reports whether reading d is more than 10% over the process's
// typical reading. The issue asked for "over the fastest"; on this box the
// fastest of a dozen readings sits 20–40% under the typical one, so that
// rule flags every rep. The first two readings have nothing to be judged
// against.
func (c *calibrator) noisy(d time.Duration) bool {
	return len(c.readings) > 2 && float64(d) > 1.10*c.typical()
}
