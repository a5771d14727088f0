package stats

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"realtracer/internal/snap"
)

// syncer is any accumulator with a Sync walk.
type syncer interface{ Sync(*snap.Codec) }

// roundTrip encodes each src and decodes it into the matching dst, failing
// the test on any codec error.
func roundTrip(t *testing.T, pairs ...[2]syncer) {
	t.Helper()
	var buf bytes.Buffer
	enc := snap.NewEncoder(&buf)
	for _, p := range pairs {
		p[0].Sync(enc)
	}
	if err := enc.Err(); err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec := snap.NewDecoder(buf.Bytes())
	for _, p := range pairs {
		p[1].Sync(dec)
	}
	if err := dec.Err(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dec.Remaining() != 0 {
		t.Fatalf("decode left %d bytes unread", dec.Remaining())
	}
}

// roundTripSketch encodes and decodes a sketch.
func roundTripSketch(t *testing.T, s *Sketch) *Sketch {
	t.Helper()
	got := &Sketch{}
	roundTrip(t, [2]syncer{s, got})
	return got
}

// randValues draws a stream mixing magnitudes, signs and exact zeros — the
// shapes that exercise the sketch's positive/negative/zero bins.
func randValues(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		switch rng.Intn(10) {
		case 0:
			out[i] = 0
		case 1:
			out[i] = -math.Exp(rng.NormFloat64() * 4)
		default:
			out[i] = math.Exp(rng.NormFloat64() * 4)
		}
	}
	return out
}

// TestWelfordRoundTripProperty checks the checkpoint property the
// aggregates depend on: split any stream at any point, round-trip the
// prefix accumulator, finish the suffix on the restored copy — the result
// is field-identical to accumulating the whole stream straight through.
func TestWelfordRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		vals := randValues(rng, 1+rng.Intn(300))
		cut := rng.Intn(len(vals) + 1)

		var straight Welford
		for _, v := range vals {
			straight.Add(v)
		}

		var prefix Welford
		for _, v := range vals[:cut] {
			prefix.Add(v)
		}
		var resumed Welford
		roundTrip(t, [2]syncer{&prefix, &resumed})
		for _, v := range vals[cut:] {
			resumed.Add(v)
		}
		if resumed != straight {
			t.Fatalf("trial %d (n=%d cut=%d): resumed %+v != straight %+v", trial, len(vals), cut, resumed, straight)
		}
	}
}

func TestSketchRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		// Small caps force trials onto the binned path; large ones stay
		// exact — both must round-trip.
		cap := []int{0, 8, 64, DefaultExactCap}[rng.Intn(4)]
		vals := randValues(rng, 1+rng.Intn(400))
		cut := rng.Intn(len(vals) + 1)

		straight := NewSketchAccuracy(DefaultSketchAlpha, cap)
		for _, v := range vals {
			straight.Add(v)
		}

		prefix := NewSketchAccuracy(DefaultSketchAlpha, cap)
		for _, v := range vals[:cut] {
			prefix.Add(v)
		}
		resumed := roundTripSketch(t, prefix)
		for _, v := range vals[cut:] {
			resumed.Add(v)
		}

		if !reflect.DeepEqual(resumed, straight) {
			t.Fatalf("trial %d (cap=%d n=%d cut=%d): resumed != straight\n%+v\n%+v",
				trial, cap, len(vals), cut, resumed, straight)
		}
		// And the observable surface agrees bit-for-bit.
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			if a, b := resumed.Quantile(q), straight.Quantile(q); a != b {
				t.Fatalf("trial %d: quantile %v: %v != %v", trial, q, a, b)
			}
		}
	}
}

// TestSketchRoundTripMergeIdentical pins the merge half of the contract:
// a restored partial merged into another partial gives the same state as
// merging the original.
func TestSketchRoundTripMergeIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		cap := []int{8, 64, DefaultExactCap}[rng.Intn(3)]
		a := NewSketchAccuracy(DefaultSketchAlpha, cap)
		b := NewSketchAccuracy(DefaultSketchAlpha, cap)
		for _, v := range randValues(rng, 1+rng.Intn(200)) {
			a.Add(v)
		}
		for _, v := range randValues(rng, 1+rng.Intn(200)) {
			b.Add(v)
		}

		direct := NewSketchAccuracy(DefaultSketchAlpha, cap)
		direct.Merge(a)
		direct.Merge(b)

		viaSnap := NewSketchAccuracy(DefaultSketchAlpha, cap)
		viaSnap.Merge(roundTripSketch(t, a))
		viaSnap.Merge(roundTripSketch(t, b))

		if !reflect.DeepEqual(direct, viaSnap) {
			t.Fatalf("trial %d: merge of round-tripped partials diverged", trial)
		}
	}
}

func TestCounterGroupedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		var c Counter
		var g Grouped
		keys := 1 + rng.Intn(12)
		for i := 0; i < keys; i++ {
			k := fmt.Sprintf("key-%02d", rng.Intn(20))
			c.Add(k, rng.Intn(1000))
			for j, n := 0, rng.Intn(40); j < n; j++ {
				g.Add(k, rng.NormFloat64()*100)
			}
		}

		var c2 Counter
		var g2 Grouped
		roundTrip(t, [2]syncer{&c, &c2}, [2]syncer{&g, &g2})
		if !reflect.DeepEqual(c, c2) {
			t.Fatalf("trial %d: counter diverged: %+v != %+v", trial, c2, c)
		}
		if !reflect.DeepEqual(g, g2) {
			t.Fatalf("trial %d: grouped diverged", trial)
		}
		// Restored groups keep accumulating identically.
		for _, k := range g.Keys() {
			g.Add(k, 3.25)
			g2.Add(k, 3.25)
			if a, b := g.Get(k).Mean(), g2.Get(k).Mean(); a != b {
				t.Fatalf("trial %d: post-restore mean for %s: %v != %v", trial, k, a, b)
			}
		}
	}
}

// TestSketchRestoreRejectsInconsistentExactCount guards the codec against a
// corrupt snapshot claiming an exact path whose sample does not match n.
func TestSketchRestoreRejectsInconsistentExactCount(t *testing.T) {
	s := NewSketch()
	s.Add(1)
	s.Add(2)
	var buf bytes.Buffer
	s.Sync(snap.NewEncoder(&buf))
	raw := buf.Bytes()
	// n is the third-from-last U64 triplet (n, min, max); bump it.
	raw[len(raw)-24]++
	dec := snap.NewDecoder(raw)
	(&Sketch{}).Sync(dec)
	if dec.Err() == nil {
		t.Fatal("restore accepted inconsistent exact-path count")
	}
}
