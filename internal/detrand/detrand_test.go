package detrand

import (
	"bytes"
	"math/rand"
	"testing"

	"realtracer/internal/snap"
)

// drawMix exercises every method class the simulation uses and returns a
// fingerprint of the values drawn.
func drawMix(r *rand.Rand, n int) []float64 {
	out := make([]float64, 0, n*5)
	for i := 0; i < n; i++ {
		out = append(out,
			float64(r.Int63()),
			r.Float64(),
			float64(r.Intn(9000)),
			r.NormFloat64(),
			r.ExpFloat64(),
		)
	}
	return out
}

func TestStreamMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{1, 9, 424242} {
		ref := drawMix(rand.New(rand.NewSource(seed)), 200)
		got := drawMix(New(seed).Rand, 200)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("seed %d: draw %d: got %v want %v", seed, i, got[i], ref[i])
			}
		}
	}
}

func TestStateRestoreRoundTrip(t *testing.T) {
	r := New(77)
	prefix := drawMix(r.Rand, 137)
	_ = prefix
	seed, count := r.State()
	if seed != 77 || count == 0 {
		t.Fatalf("State() = (%d, %d)", seed, count)
	}
	var buf bytes.Buffer
	r.Sync(snap.NewEncoder(&buf), nil)
	rest := New(0)
	dec := snap.NewDecoder(buf.Bytes())
	rest.Sync(dec, nil)
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if a, b := r.Int63(), rest.Int63(); a != b {
			t.Fatalf("draw %d after restore: %d != %d", i, a, b)
		}
		if a, b := r.NormFloat64(), rest.NormFloat64(); a != b {
			t.Fatalf("norm draw %d after restore: %v != %v", i, a, b)
		}
	}
	if _, c1 := r.State(); c1 == count {
		t.Fatal("count did not advance")
	}
}

func TestSeedResetsCount(t *testing.T) {
	r := New(5)
	r.Float64()
	r.Seed(11)
	if seed, count := r.State(); seed != 11 || count != 0 {
		t.Fatalf("after Seed: State() = (%d, %d), want (11, 0)", seed, count)
	}
	ref := rand.New(rand.NewSource(11))
	if a, b := r.Int63(), ref.Int63(); a != b {
		t.Fatalf("re-seeded stream diverges: %d != %d", a, b)
	}
}
