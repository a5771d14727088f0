// Package snap is the binary codec substrate for world checkpoints: one
// direction-carrying Codec over primitive little-endian fields, with section
// tags for structural validation. A checkpointed type describes its state
// once, as a Sync(c *snap.Codec) walk of c.U32(&p.Seq)-style calls; the
// same walk writes the snapshot when c was built by NewEncoder and restores
// it when c was built by NewDecoder, so the field order exists in exactly
// one place and a reader cannot drift from its writer. Where restoring
// genuinely differs from persisting — allocating the owner object,
// re-arming a timer, resolving a reference — the walk branches on
// c.Reading().
//
// The format favours debuggability over size: fixed-width integers,
// length-prefixed byte strings, and a tag sequence that makes a decoder
// desynchronized from the encoder fail fast with the section names of both
// sides instead of decoding garbage.
//
// Errors are sticky in both directions: after the first failure every call
// is a no-op (a decode leaves its target untouched) and Err reports the
// original cause, so a walk covers whole sections without per-field error
// plumbing and checks once at the end.
//
// A decoder treats its input as hostile. It works on a buffered byte slice,
// so every length and element count read off the wire is checked against
// the bytes that remain before anything is allocated, and the one restore
// cost that a field's value (not the input's length) sets — replaying RNG
// draws — is charged against a budget proportional to the input.
package snap

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"time"
)

// Codec encodes fields to an io.Writer or decodes them from a byte slice,
// depending on how it was built. Every field method takes a pointer: it
// writes the pointed-to value when encoding and overwrites it when decoding.
type Codec struct {
	w       io.Writer         // non-nil: encoding
	in      []byte            // decoding: the unread input
	draws   uint64            // decoding: RNG replay budget left, see DrawCount
	strs    map[string]string // decoding: the values Interned has built
	reading bool
	buf     [8]byte
	err     error
}

// Replay budget: a snapshot of n bytes justifies at most
// drawsBase + drawsPerByte*n RNG draws across all of its streams. Real
// snapshots carry a few draws per byte (the records of every completed
// session ride along), so the bound is three orders of magnitude above
// need while keeping a hostile draw count from spinning for years.
const (
	drawsBase    = 1 << 20
	drawsPerByte = 1 << 12
)

// NewEncoder returns a Codec that writes fields to w.
func NewEncoder(w io.Writer) *Codec { return &Codec{w: w} }

// NewDecoder returns a Codec that reads fields from b.
func NewDecoder(b []byte) *Codec {
	return &Codec{in: b, reading: true, draws: drawsBase + drawsPerByte*uint64(len(b))}
}

// Reading reports whether the codec decodes (true) or encodes (false).
func (c *Codec) Reading() bool { return c.reading }

// Err returns the first error, or nil.
func (c *Codec) Err() error { return c.err }

// Fail records err (if none is recorded yet) and turns every further call
// into a no-op.
func (c *Codec) Fail(err error) {
	if c.err == nil && err != nil {
		c.err = err
	}
}

// Remaining returns the number of undecoded input bytes (0 when encoding).
func (c *Codec) Remaining() int { return len(c.in) }

// raw moves len(b) bytes between b and the stream; false means the codec
// has failed and b is untouched.
func (c *Codec) raw(b []byte) bool {
	if c.err != nil {
		return false
	}
	if !c.reading {
		_, c.err = c.w.Write(b)
		return c.err == nil
	}
	if len(b) > len(c.in) {
		c.err = fmt.Errorf("snap: short read: %w", io.ErrUnexpectedEOF)
		return false
	}
	copy(b, c.in)
	c.in = c.in[len(b):]
	return true
}

// U8 syncs one byte.
func (c *Codec) U8(v *uint8) {
	c.buf[0] = *v
	if c.raw(c.buf[:1]) {
		*v = c.buf[0]
	}
}

// Bool syncs a boolean as one byte; any non-zero byte decodes as true.
func (c *Codec) Bool(v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	c.U8(&b)
	if c.reading && c.err == nil {
		*v = b != 0
	}
}

// U32 syncs a fixed-width uint32.
func (c *Codec) U32(v *uint32) {
	binary.LittleEndian.PutUint32(c.buf[:4], *v)
	if c.raw(c.buf[:4]) {
		*v = binary.LittleEndian.Uint32(c.buf[:4])
	}
}

// U64 syncs a fixed-width uint64.
func (c *Codec) U64(v *uint64) {
	binary.LittleEndian.PutUint64(c.buf[:8], *v)
	if c.raw(c.buf[:8]) {
		*v = binary.LittleEndian.Uint64(c.buf[:8])
	}
}

// I64 syncs a fixed-width int64.
func (c *Codec) I64(v *int64) { I64As(c, v) }

// Int syncs an int as int64.
func (c *Codec) Int(v *int) { I64As(c, v) }

// Dur syncs a time.Duration as its int64 nanosecond count.
func (c *Codec) Dur(v *time.Duration) { I64As(c, v) }

// F64 syncs a float64 bit pattern — bit-exact, including NaN payloads and
// signed zeros.
func (c *Codec) F64(v *float64) {
	u := math.Float64bits(*v)
	c.U64(&u)
	*v = math.Float64frombits(u)
}

// I64As syncs any signed integer type as a fixed-width int64.
func I64As[T ~int | ~int8 | ~int16 | ~int32 | ~int64](c *Codec, v *T) {
	u := uint64(int64(*v))
	c.U64(&u)
	*v = T(int64(u))
}

// U64As syncs any unsigned integer type as a fixed-width uint64.
func U64As[T ~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64](c *Codec, v *T) {
	u := uint64(*v)
	c.U64(&u)
	*v = T(u)
}

// U32As syncs a narrower unsigned type as a fixed-width uint32.
func U32As[T ~uint8 | ~uint16 | ~uint32](c *Codec, v *T) {
	u := uint32(*v)
	c.U32(&u)
	*v = T(u)
}

// U8As syncs a small enum of any integer type as one byte.
func U8As[T ~int | ~uint8](c *Codec, v *T) {
	u := uint8(*v)
	c.U8(&u)
	*v = T(u)
}

// Len syncs an element count or byte length as a uint32. Every element
// occupies at least one byte on the wire, so a decoded count larger than
// the remaining input fails the codec instead of sizing an allocation.
func (c *Codec) Len(n *int) {
	u := uint32(*n)
	if !c.reading && (*n < 0 || int(u) != *n) {
		c.Fail(fmt.Errorf("snap: length %d does not fit the format", *n))
		return
	}
	c.U32(&u)
	if !c.reading || c.err != nil {
		return
	}
	if uint64(u) > uint64(len(c.in)) {
		c.err = fmt.Errorf("snap: length %d exceeds the %d bytes remaining", u, len(c.in))
		return
	}
	*n = int(u)
}

// Bytes syncs a length-prefixed byte string. The wire does not distinguish
// nil from empty: both encode as length 0, which decodes as nil.
func (c *Codec) Bytes(b *[]byte) {
	n := len(*b)
	c.Len(&n)
	if c.err != nil {
		return
	}
	if !c.reading {
		c.raw(*b)
		return
	}
	*b = nil
	if n > 0 {
		*b = slices.Clone(c.in[:n])
		c.in = c.in[n:]
	}
}

// Str syncs a length-prefixed string.
func (c *Codec) Str(s *string) { StrAs(c, s) }

// StrAs syncs any string type as a length-prefixed string.
func StrAs[T ~string](c *Codec, s *T) {
	n := len(*s)
	c.Len(&n)
	if c.err != nil {
		return
	}
	if !c.reading {
		c.raw([]byte(*s))
		return
	}
	*s = T(c.in[:n])
	c.in = c.in[n:]
}

// Interned syncs a length-prefixed string exactly like Str, for values that
// repeat across many objects of one snapshot (a user name, a clip URL on every
// record). Decoding builds each distinct value once and shares it with every
// later occurrence; the table lives as long as this decoder, so nothing is
// shared between two decodes.
func (c *Codec) Interned(s *string) {
	if !c.reading {
		c.Str(s)
		return
	}
	n := 0
	c.Len(&n)
	if c.err != nil {
		return
	}
	b := c.in[:n]
	c.in = c.in[n:]
	v, ok := c.strs[string(b)]
	if !ok {
		if c.strs == nil {
			c.strs = make(map[string]string)
		}
		v = string(b)
		c.strs[v] = v
	}
	*s = v
}

// Tag syncs a section marker: encoded as a string, and on decode compared
// against name — the format's structural checksum. A mismatch fails the
// codec naming both sections.
func (c *Codec) Tag(name string) {
	got := name
	c.Str(&got)
	if c.err == nil && got != name {
		c.err = fmt.Errorf("snap: section %q, want %q (snapshot and reader disagree on layout)", got, name)
	}
}

// DrawCount syncs an RNG stream's draw count. Replaying draws is the one
// restore step whose cost is set by a field's value rather than by the
// input's length, so decoding charges the count against a budget
// proportional to the input and fails the codec when the snapshot cannot
// justify it.
func (c *Codec) DrawCount(n *uint64) {
	c.U64(n)
	if !c.reading || c.err != nil {
		return
	}
	if *n > c.draws {
		c.err = fmt.Errorf("snap: RNG draw count %d exceeds what a snapshot of this size can justify", *n)
		*n = 0
		return
	}
	c.draws -= *n
}

// Slice syncs a counted sequence, walking every element with each. Decoding
// replaces the contents of *s, reusing its capacity; a zero count leaves a
// nil slice nil. The slice is sized up front only when that costs no more
// than the input still unread, and otherwise grows as elements actually
// decode, so a hostile count cannot allocate beyond what backs it.
func Slice[T any](c *Codec, s *[]T, each func(*Codec, *T)) {
	n := len(*s)
	c.Len(&n)
	if !c.reading {
		for i := range *s {
			each(c, &(*s)[i])
		}
		return
	}
	*s = (*s)[:0]
	if c.err == nil && n > cap(*s) && n*int(reflect.TypeFor[T]().Size()) <= len(c.in) {
		*s = make([]T, 0, n)
	}
	for i := 0; i < n && c.err == nil; i++ {
		var zero T
		*s = append(*s, zero)
		each(c, &(*s)[i]) // in place: no per-element heap cell
	}
}

// Map syncs a map as a counted sequence of (key, value) pairs in sorted key
// order, so the bytes of a given map state are deterministic. Decoding
// inserts into *m, allocating it only when there is something to insert.
func Map[K cmp.Ordered, V any](c *Codec, m *map[K]V, key func(*Codec, *K), val func(*Codec, *V)) {
	n := len(*m)
	c.Len(&n)
	var k K // one cell each for the whole walk, not one per entry
	var v V
	if !c.reading {
		keys := make([]K, 0, n)
		for mk := range *m {
			keys = append(keys, mk)
		}
		slices.Sort(keys)
		for _, mk := range keys {
			k, v = mk, (*m)[mk]
			key(c, &k)
			val(c, &v)
		}
		return
	}
	if n > 0 && *m == nil {
		*m = make(map[K]V)
	}
	for i := 0; i < n && c.err == nil; i++ {
		k, v = *new(K), *new(V)
		key(c, &k)
		val(c, &v)
		if c.err == nil {
			(*m)[k] = v
		}
	}
}
