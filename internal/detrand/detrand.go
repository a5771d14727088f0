// Package detrand wraps math/rand in a draw-counting source so a running
// simulation's RNG streams can be checkpointed and replayed byte-exactly
// without reaching into math/rand internals. A Rand records its seed and
// counts every Int63 the underlying source serves; restoring (Sync) replays
// that many draws from a fresh source of the same seed, leaving the stream
// positioned exactly where the checkpoint left it.
//
// The counting source deliberately implements only rand.Source — not
// rand.Source64. math/rand composes Uint64 from two Int63 calls when the
// source lacks Uint64, so every rand.Rand method funnels through Int63 and
// the draw count is exact regardless of which methods the caller mixes.
// (Counting calls on a Source64 wrapper would undercount: the standard
// rngSource's Uint64 advances the generator twice.) Because every repo
// draw path (Float64, Int63n, NormFloat64, ExpFloat64, Intn, ...) already
// funnels through Int63, hiding the Source64 fast path changes no stream:
// a detrand.Rand draws the same values as rand.New(rand.NewSource(seed)).
package detrand

import (
	"math/rand"

	"realtracer/internal/snap"
)

// source counts Int63 draws against the wrapped math/rand source.
type source struct {
	src   rand.Source
	count uint64
}

// Int63 implements rand.Source.
func (s *source) Int63() int64 {
	s.count++
	return s.src.Int63()
}

// Seed implements rand.Source.
func (s *source) Seed(seed int64) {
	s.src.Seed(seed)
	s.count = 0
}

// Rand is a draw-counting random stream. Rand (the embedded field) is a
// plain *rand.Rand and can be handed to any API that wants one; State
// reads the stream position for a checkpoint.
type Rand struct {
	*rand.Rand
	seed int64
	src  *source
}

// New returns a counting stream seeded with seed, drawing the same values
// as rand.New(rand.NewSource(seed)).
func New(seed int64) *Rand {
	src := &source{src: rand.NewSource(seed)}
	return &Rand{Rand: rand.New(src), seed: seed, src: src}
}

// State returns the seed and the number of Int63 draws served so far.
func (r *Rand) State() (seed int64, count uint64) { return r.seed, r.src.count }

// Seed re-seeds the stream and resets the draw count, mirroring
// rand.Rand.Seed. The recorded seed is updated so State round-trips.
func (r *Rand) Seed(seed int64) {
	r.Rand.Seed(seed)
	r.seed = seed
	r.src.count = 0
}

// Skip burns n draws, advancing the stream without delivering values.
func (r *Rand) Skip(n uint64) {
	for i := uint64(0); i < n; i++ {
		r.src.src.Int63()
	}
	r.src.count += n
}

// Sync walks the stream position as (seed, draw count). Decoding positions
// the stream in place — every pointer handed out to the embedded Rand stays
// valid — by re-seeding and replaying the count, which the codec has
// already checked against what the snapshot can justify. A non-nil fork
// instead restarts the stream at the seed it derives from the decoded
// position: the divergent-scenario path, which replays nothing.
func (r *Rand) Sync(c *snap.Codec, fork func(seed int64, count uint64) int64) {
	seed, count := r.State()
	c.I64(&seed)
	c.DrawCount(&count)
	if !c.Reading() || c.Err() != nil {
		return
	}
	if fork != nil {
		r.Seed(fork(seed, count))
		return
	}
	r.Seed(seed)
	r.Skip(count)
}
