package seqwin

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"realtracer/internal/snap"
)

// refWindow is the oracle: a plain map with the window's one rule of its
// own — a Put evicts every key a whole MaxSpan or more away from the new one.
type refWindow map[uint64]int

func (r refWindow) put(key uint64, v int) {
	for k := range r {
		if k < key && key-k >= MaxSpan || k > key && k-key >= MaxSpan {
			delete(r, k)
		}
	}
	r[key] = v
}

func (r refWindow) dropBelow(cut uint64) (dropped int) {
	for k := range r {
		if k < cut {
			delete(r, k)
			dropped++
		}
	}
	return dropped
}

func (r refWindow) sorted() (keys []uint64) {
	for k := range r {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// checkShape asserts what the ring promises whatever the trace did: a
// power-of-two size no larger than MaxSpan, every entry inside
// [lo, lo+len(ring)), and an occupancy count that is the truth.
func checkShape(t *testing.T, w *Window[int], step int) {
	t.Helper()
	size := len(w.ring)
	if size&(size-1) != 0 || size > MaxSpan {
		t.Fatalf("step %d: ring has %d slots", step, size)
	}
	occupied := 0
	for _, v := range w.ring {
		if v != 0 {
			occupied++
		}
	}
	if occupied != w.n {
		t.Fatalf("step %d: n = %d but %d slots are occupied", step, w.n, occupied)
	}
}

// TestWindowMatchesMap drives seeded random traces of every operation
// through a Window and the map oracle and requires identical answers — and
// identical ascending Each order — at every step. The key generator aims at
// the ring's edges: dense runs off the top, gaps, keys below lo, the key
// exactly one ring past lo (the first that forces growth), cuts beyond the
// whole ring, growth while the occupied span wraps the ring's end, and keys
// far enough away to evict.
func TestWindowMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var w Window[int]
		ref := refWindow{}
		// Keys are counters nowhere near 2^64, where the ring's modular
		// arithmetic and the oracle's plain compares would part ways; traces
		// start at 1000, just under 2^32 or beyond it.
		next := 1000 + uint64(rng.Intn(3))*(1<<32-1500)
		key := func() uint64 {
			switch rng.Intn(12) {
			case 0: // a gap
				next += uint64(1 + rng.Intn(40))
			case 1: // below the low edge
				return max(w.lo, 20) - uint64(1+rng.Intn(20))
			case 2: // the ring's top edge: its last slot, or the first key past it
				// Rarely — a ring never shrinks, and a Put up there followed
				// by one below lo doubles it.
				if rng.Intn(20) == 0 {
					return w.lo + uint64(max(len(w.ring), 1)) - uint64(rng.Intn(2))
				}
			case 3, 4: // somewhere inside
				return w.lo + uint64(rng.Intn(len(w.ring)/2+1))
			case 5: // far enough to evict, now and then, in a quarter of the traces
				if seed%4 == 0 && rng.Intn(40) == 0 {
					next += MaxSpan - uint64(rng.Intn(3))
				}
			}
			next++
			return next
		}
		for step := 0; step < 6000; step++ {
			switch op := rng.Intn(20); {
			case op < 9:
				k, v := key(), step+1
				w.Put(k, v)
				ref.put(k, v)
			case op < 12:
				k := key()
				got, want := w.Get(k), ref[k]
				if got != want {
					t.Fatalf("seed %d step %d: Get(%d) = %d, want %d", seed, step, k, got, want)
				}
			case op < 14:
				k := key()
				w.Delete(k)
				delete(ref, k)
			case op < 17:
				var cut uint64
				switch rng.Intn(4) {
				case 0: // the sliding-window step: keep the last few dozen keys
					cut = next - uint64(rng.Intn(100))
				case 1:
					cut = w.lo + uint64(rng.Intn(len(w.ring)+1))
				case 2: // past the whole ring
					cut = w.lo + uint64(len(w.ring)) + uint64(rng.Intn(50))
				case 3: // at or below the edge: nothing to do
					cut = max(w.lo, 3) - uint64(rng.Intn(3))
				}
				if got, want := w.DropBelow(cut), ref.dropBelow(cut); got != want {
					t.Fatalf("seed %d step %d: DropBelow(%d) = %d, want %d", seed, step, cut, got, want)
				}
				if cut > next {
					next = cut // keep the dense run ahead of the cut
				}
			case op < 18:
				k, v := w.Min()
				if keys := ref.sorted(); len(keys) == 0 {
					if k != 0 || v != 0 {
						t.Fatalf("seed %d step %d: Min of an empty window = (%d, %d)", seed, step, k, v)
					}
				} else if k != keys[0] || v != ref[keys[0]] {
					t.Fatalf("seed %d step %d: Min = (%d, %d), want (%d, %d)", seed, step, k, v, keys[0], ref[keys[0]])
				}
			case op < 19 || step%3 != 0:
				var got []uint64
				for k, v := range w.Each {
					if v != ref[k] {
						t.Fatalf("seed %d step %d: Each yields (%d, %d), want value %d", seed, step, k, v, ref[k])
					}
					got = append(got, k)
				}
				if want := ref.sorted(); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: Each walked %v, want %v", seed, step, got, want)
				}
			default:
				// A ring never shrinks, so alternate a recycled window with a
				// fresh one or every trace ends up on a wide ring. The recycled
				// one is by turns this window Reset and a new one that Adopts
				// the ring this one Yields, and the fresh one by turns a zero
				// window and one Reserved to up to 1,024 slots: from here on
				// the oracle must not be able to tell any of them apart.
				switch step % 4 {
				case 1:
					w.Reset()
				case 2:
					w = Window[int]{}
					w.Reserve(step * 37 % 1100)
					if len(w.ring) < min(step*37%1100, MaxSpan) {
						t.Fatalf("seed %d step %d: Reserve(%d) made a ring of %d slots", seed, step, step*37%1100, len(w.ring))
					}
				case 3:
					ring := w.Yield()
					if w.ring != nil || w.lo != 0 || w.n != 0 || slices.ContainsFunc(ring, func(v int) bool { return v != 0 }) {
						t.Fatalf("seed %d step %d: Yield left %+v and a ring holding %v", seed, step, w, ring)
					}
					w.Adopt(ring)
				default:
					w = Window[int]{}
				}
				clear(ref)
			}
			if w.Len() != len(ref) {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, w.Len(), len(ref))
			}
			if len(w.ring) <= 256 || step%64 == 0 { // the scan is the test's cost once a ring is wide
				checkShape(t, &w, step)
			}
		}
	}
}

// TestWindowGrowsWhileWrapped pins the one re-layout that moves entries: a
// window whose occupied span straddles the ring's end doubles, and every
// entry must land in the slot its key selects in the larger ring.
func TestWindowGrowsWhileWrapped(t *testing.T) {
	var w Window[int]
	for k := uint64(5); k < 5+minRing; k++ { // slots 5,6,7,0,1,2,3,4 of an 8-ring
		w.Put(k, int(k))
	}
	if len(w.ring) != minRing || w.lo != 5 {
		t.Fatalf("setup: ring %d lo %d", len(w.ring), w.lo)
	}
	w.Put(5+minRing, 99)
	if len(w.ring) != 2*minRing {
		t.Fatalf("ring has %d slots after one key past a full ring", len(w.ring))
	}
	for k := uint64(5); k < 5+minRing; k++ {
		if got := w.Get(k); got != int(k) {
			t.Fatalf("Get(%d) = %d after growth", k, got)
		}
	}
	if w.Get(5+minRing) != 99 || w.Len() != minRing+1 {
		t.Fatalf("newcomer = %d, Len = %d", w.Get(5+minRing), w.Len())
	}
}

// TestAdoptRefusesAWindowInUse: a ring laid over entries would lose them, and
// so would one Reserve makes.
func TestAdoptRefusesAWindowInUse(t *testing.T) {
	var donor Window[int]
	donor.Put(3, 1)
	for name, lay := range map[string]func(w *Window[int]){
		"Adopt":   func(w *Window[int]) { w.Adopt(donor.Yield()) },
		"Reserve": func(w *Window[int]) { w.Reserve(1024) },
	} {
		var w Window[int]
		w.Put(7, 1)
		func() {
			defer func() {
				if recover() == nil || w.Get(7) != 1 {
					t.Errorf("%s into a window holding an entry did not panic (Get(7) = %d)", name, w.Get(7))
				}
			}()
			lay(&w)
		}()
	}
}

// TestSyncRoundTripAndHostileInput: a window decodes to what was encoded, and
// a stream no encoder could have produced is a named error before any entry
// of it sizes a ring.
func TestSyncRoundTripAndHostileInput(t *testing.T) {
	entry := func(c *snap.Codec, key *uint64, v *int) {
		c.U64(key)
		c.Int(v)
	}
	encode := func(pairs ...uint64) []byte {
		var buf bytes.Buffer
		c := snap.NewEncoder(&buf)
		n := len(pairs) / 2
		c.Len(&n)
		for i := 0; i < len(pairs); i += 2 {
			v := int(pairs[i+1])
			c.U64(&pairs[i])
			c.Int(&v)
		}
		return buf.Bytes()
	}

	var w Window[int]
	for _, k := range []uint64{900, 7, 400, 8} {
		w.Put(k, int(k)*3)
	}
	var buf bytes.Buffer
	w.Sync(snap.NewEncoder(&buf), "test window", "t", entry)
	if want := encode(7, 21, 8, 24, 400, 1200, 900, 2700); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("encoded %x, want count then ascending pairs %x", buf.Bytes(), want)
	}
	var back Window[int]
	back.Put(123456, 1) // decoding replaces what was there
	c := snap.NewDecoder(buf.Bytes())
	back.Sync(c, "test window", "t", entry)
	if c.Err() != nil || back.Len() != 4 || back.Get(400) != 1200 || back.Get(123456) != 0 {
		t.Fatalf("decode: err %v, Len %d, Get(400) %d, Get(123456) %d", c.Err(), back.Len(), back.Get(400), back.Get(123456))
	}

	for _, tc := range []struct {
		name string
		in   []byte
		want string
	}{
		{"two far-apart seqs", encode(5, 1, 5+MaxSpan, 1), "seqwin: test window of t: seqs 5 and 65541 are too far apart for one window (limit 65536)"},
		{"descending", encode(9, 1, 8, 1), "seqwin: test window of t: seq 8 follows seq 9"},
		{"duplicate", encode(9, 1, 9, 2), "seqwin: test window of t: seq 9 follows seq 9"},
		{"absent value", encode(9, 0), "seqwin: test window of t: seq 9 has no value"},
		{"count beyond the input", encode(9, 1)[:4], "exceeds"},
	} {
		if tc.name == "count beyond the input" {
			tc.in[0] = 200
		}
		var w Window[int]
		c := snap.NewDecoder(tc.in)
		w.Sync(c, "test window", "t", entry)
		if c.Err() == nil || !strings.Contains(c.Err().Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, c.Err(), tc.want)
		}
		if len(w.ring) > minRing {
			t.Errorf("%s: a refused stream grew the ring to %d slots", tc.name, len(w.ring))
		}
	}
}

// BenchmarkSeqWindow is the kernel's own number: the sliding-window step the
// per-packet paths perform — put the next seq, look one up, cut one off the
// bottom — on a window of 512, with no allocation once the ring has grown.
func BenchmarkSeqWindow(b *testing.B) {
	const held = 512
	var w Window[*int]
	v := new(int)
	seq := uint64(0)
	for ; seq < held; seq++ {
		w.Put(seq, v)
	}
	hits := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Put(seq, v)
		if w.Get(seq-held/2) != nil {
			hits++
		}
		w.DropBelow(seq - held + 1)
		seq++
	}
	if hits != b.N || w.Len() != held {
		b.Fatalf("hits %d of %d, Len %d", hits, b.N, w.Len())
	}
}
