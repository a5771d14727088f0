package player

import (
	"math/rand"
	"slices"
	"testing"
	"time"
	"unsafe"
)

// refHeap is the reference model of the playout buffer: the textbook binary
// heap the bottom-up pop replaced, pushing by sift-up and popping by moving
// the last entry to the root and sifting it down, the smaller child first and
// the left one on a tie. It shares no code with frameHeap.
type refHeap []bufFrame

func (h *refHeap) push(f bufFrame) {
	*h = append(*h, f)
	a := *h
	for i := len(a) - 1; i > 0; {
		parent := (i - 1) / 2
		if a[parent].mediaTime <= a[i].mediaTime {
			break
		}
		a[i], a[parent] = a[parent], a[i]
		i = parent
	}
}

func (h *refHeap) pop() bufFrame {
	old := *h
	top := old[0]
	n := len(old)
	old[0] = old[n-1]
	a := old[:n-1]
	*h = a
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(a) && a[l].mediaTime < a[smallest].mediaTime {
			smallest = l
		}
		if r < len(a) && a[r].mediaTime < a[smallest].mediaTime {
			smallest = r
		}
		if smallest == i {
			break
		}
		a[i], a[smallest] = a[smallest], a[i]
		i = smallest
	}
	return top
}

// TestFrameHeapMatchesSiftDown replays random push/pop traces through the
// playout buffer and the reference heap in lockstep and requires the same
// array after every operation, not just the same frame popped: a checkpoint
// walks the buffer in raw array order, and which of two frames due at one
// media time plays first is part of every record. Media times are drawn from
// a few values around a drifting playout position, so ties are the rule and
// the buffer is near-sorted, as a stream's is. Every frame carries a unique
// index, so equal arrays mean the same frames in the same slots.
func TestFrameHeapMatchesSiftDown(t *testing.T) {
	if got := unsafe.Sizeof(bufFrame{}); got != 24 {
		t.Errorf("a buffered frame is %d bytes, want 24", got)
	}
	seeds, ops := 2000, 3000
	if testing.Short() {
		seeds = 200
	}
	for seed := range int64(seeds) {
		rng := rand.New(rand.NewSource(seed))
		var h frameHeap
		var ref refHeap
		var next uint32
		base := time.Duration(0)
		// Each trace leans to pushes or to pops for a while, so the buffer
		// both fills to a few hundred frames and drains to empty.
		pushBias := 0.5
		for op := range ops {
			if op%200 == 0 {
				pushBias = 0.3 + 0.4*rng.Float64()
			}
			if len(ref) == 0 || rng.Float64() < pushBias {
				base += time.Duration(rng.Intn(3)) * 10 * time.Millisecond
				f := bufFrame{
					mediaTime: base + time.Duration(rng.Intn(6))*20*time.Millisecond,
					arrived:   time.Duration(op),
					index:     next,
					video:     rng.Intn(2) == 0,
					keyframe:  rng.Intn(8) == 0,
				}
				next++
				h.push(f)
				ref.push(f)
			} else if got, want := h.pop(), ref.pop(); got != want {
				t.Fatalf("seed %d op %d: popped %+v, the reference popped %+v", seed, op, got, want)
			}
			if !slices.Equal([]bufFrame(h), ref) {
				t.Fatalf("seed %d op %d: buffer %v, the reference heap %v", seed, op, h, ref)
			}
		}
	}
}
