package snap

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// sample is one value of every primitive the codec carries, plus the
// composite helpers.
type sample struct {
	U8    uint8
	Bool  bool
	U32   uint32
	U64   uint64
	I64   int64
	Int   int
	F64   float64
	Dur   time.Duration
	Bytes []byte
	Str   string
	I32   int32  // via I64As
	U16   uint16 // via U64As
	Got   uint16 // via U32As
	Enum  int    // via U8As
	Draws uint64
	Ints  []int
	Map   map[string]uint32
}

func (s *sample) sync(c *Codec) {
	c.Tag("sample")
	c.U8(&s.U8)
	c.Bool(&s.Bool)
	c.U32(&s.U32)
	c.U64(&s.U64)
	c.I64(&s.I64)
	c.Int(&s.Int)
	c.F64(&s.F64)
	c.Dur(&s.Dur)
	c.Bytes(&s.Bytes)
	c.Str(&s.Str)
	I64As(c, &s.I32)
	U64As(c, &s.U16)
	U32As(c, &s.Got)
	U8As(c, &s.Enum)
	c.DrawCount(&s.Draws)
	Slice(c, &s.Ints, (*Codec).Int)
	Map(c, &s.Map, (*Codec).Str, (*Codec).U32)
	c.Tag("end")
}

func encode(t *testing.T, s *sample) []byte {
	t.Helper()
	var buf bytes.Buffer
	c := NewEncoder(&buf)
	s.sync(c)
	if err := c.Err(); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

func extremes() []sample {
	return []sample{
		{}, // every zero value, nil slice, nil map
		{
			U8: math.MaxUint8, Bool: true, U32: math.MaxUint32, U64: math.MaxUint64,
			I64: math.MaxInt64, Int: math.MaxInt, F64: math.MaxFloat64, Dur: math.MaxInt64,
			Bytes: []byte{0, 0xff, 7}, Str: "héllo\x00", I32: math.MaxInt32, U16: math.MaxUint16,
			Got: math.MaxUint16, Enum: 255, Draws: 1000,
			Ints: []int{math.MinInt, -1, 0, 1, math.MaxInt},
			Map:  map[string]uint32{"b": 2, "a": 1, "": 0},
		},
		{
			I64: math.MinInt64, Int: math.MinInt, Dur: math.MinInt64, I32: math.MinInt32,
			F64: math.Copysign(0, -1),
		},
		{F64: math.Float64frombits(0x7ff8_dead_beef_0001)}, // NaN with a payload
		{F64: math.Float64frombits(0x7ff0_0000_0000_0001)}, // signalling NaN
		{F64: math.Inf(-1), Bytes: []byte{}, Ints: []int{}, Map: map[string]uint32{}},
	}
}

// TestRoundTripBitExact walks every primitive through encode and decode and
// requires the decoded value to re-encode to the identical bytes — the
// bit-exact test that also covers NaN, which no == comparison can.
func TestRoundTripBitExact(t *testing.T) {
	for i, want := range extremes() {
		wire := encode(t, &want)
		var got sample
		c := NewDecoder(wire)
		got.sync(c)
		if err := c.Err(); err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if c.Remaining() != 0 {
			t.Fatalf("case %d: %d bytes left unread", i, c.Remaining())
		}
		if again := encode(t, &got); !bytes.Equal(again, wire) {
			t.Fatalf("case %d: re-encoded bytes differ\n got %+v\nwant %+v", i, got, want)
		}
		if math.Float64bits(got.F64) != math.Float64bits(want.F64) {
			t.Fatalf("case %d: float bits %#x, want %#x", i, math.Float64bits(got.F64), math.Float64bits(want.F64))
		}
		// The wire has no nil: empty and nil both decode as nil.
		if got.Bytes != nil && len(want.Bytes) == 0 || got.Ints != nil && len(want.Ints) == 0 || got.Map != nil && len(want.Map) == 0 {
			t.Fatalf("case %d: empty collection decoded non-nil: %+v", i, got)
		}
		want.F64, got.F64 = 0, 0 // compared above; NaN != NaN
		if len(want.Bytes) == 0 {
			want.Bytes = nil
		}
		if len(want.Ints) == 0 {
			want.Ints = nil
		}
		if len(want.Map) == 0 {
			want.Map = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// TestDecodeReusesSliceCapacity pins Slice's contract for pooled owners:
// decoding replaces the contents in place.
func TestDecodeReusesSliceCapacity(t *testing.T) {
	src := sample{Ints: []int{1, 2, 3}}
	wire := encode(t, &src)
	backing := make([]int, 8)
	dst := sample{Ints: backing[:5]}
	c := NewDecoder(wire)
	dst.sync(c)
	if c.Err() != nil || !reflect.DeepEqual(dst.Ints, src.Ints) || &dst.Ints[0] != &backing[0] {
		t.Fatalf("decoded %v (err %v), want %v in the original backing array", dst.Ints, c.Err(), src.Ints)
	}
}

func TestTagMismatchNamesBothSections(t *testing.T) {
	var buf bytes.Buffer
	NewEncoder(&buf).Tag("written")
	c := NewDecoder(buf.Bytes())
	c.Tag("expected")
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), `"written"`) || !strings.Contains(err.Error(), `"expected"`) {
		t.Fatalf("tag mismatch error %v does not name both sections", err)
	}
}

type failingWriter struct{ left int }

var errDiskFull = errors.New("disk full")

func (w *failingWriter) Write(b []byte) (int, error) {
	if w.left -= len(b); w.left < 0 {
		return 0, errDiskFull
	}
	return len(b), nil
}

// TestErrorsAreSticky checks both directions: after the first failure the
// original cause stays, later calls do nothing, and a failed decode leaves
// its targets untouched.
func TestErrorsAreSticky(t *testing.T) {
	full := extremes()[1]

	w := &failingWriter{left: 20}
	enc := NewEncoder(w)
	full.sync(enc)
	if !errors.Is(enc.Err(), errDiskFull) {
		t.Fatalf("encode error %v, want the writer's", enc.Err())
	}
	enc.Fail(errors.New("later"))
	if !errors.Is(enc.Err(), errDiskFull) {
		t.Fatalf("a later Fail replaced the first error: %v", enc.Err())
	}
	if left := w.left; func() int { enc.U64(&full.U64); return w.left }() != left {
		t.Fatal("a failed encoder kept writing")
	}

	dec := NewDecoder(encode(t, &full)[:30])
	got := sample{U64: 42, Str: "untouched", Ints: []int{9}}
	got.sync(dec)
	first := dec.Err()
	if first == nil {
		t.Fatal("decoding a truncated stream succeeded")
	}
	if got.Str != "untouched" || got.Draws != 0 {
		t.Fatalf("a failed decode overwrote its targets: %+v", got)
	}
	dec.Tag("anything")
	if dec.Err() != first {
		t.Fatalf("a later failure replaced the first error: %v", dec.Err())
	}
}

// TestTruncationAlwaysFailsCheaply truncates a valid stream at every byte
// offset: each prefix must fail, and no decode may allocate more than a
// small multiple of the input however large the counts in it claim to be.
func TestTruncationAlwaysFailsCheaply(t *testing.T) {
	big := extremes()[1]
	big.Bytes = bytes.Repeat([]byte{0xab}, 1024)
	big.Ints = make([]int, 512)
	wire := encode(t, &big)
	var ms0, ms1 runtime.MemStats
	for cut := 0; cut < len(wire); cut++ {
		measure := cut%61 == 0 // ReadMemStats stops the world; sample it
		if measure {
			runtime.ReadMemStats(&ms0)
		}
		var got sample
		c := NewDecoder(wire[:cut])
		got.sync(c)
		if c.Err() == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(wire))
		}
		if measure {
			// TotalAlloc is cumulative: a slice cut short grows by append,
			// whose discarded generations sum to a few times the final one.
			// The constant absorbs the error value and, under -race, the
			// detector's own bookkeeping; what must not happen is growth
			// with the counts the stream claims rather than with its bytes.
			runtime.ReadMemStats(&ms1)
			if grew := ms1.TotalAlloc - ms0.TotalAlloc; grew > uint64(8*cut+16<<10) {
				t.Fatalf("decoding a %d-byte prefix allocated %d bytes", cut, grew)
			}
		}
	}

	// Hostile counts: up to 4 GiB of claimed elements backed by four bytes.
	runtime.ReadMemStats(&ms0)
	for _, n := range []uint32{math.MaxUint32, 1 << 30, uint32(len(wire))} {
		c := NewDecoder(lenPrefixed(n))
		var s []int
		Slice(c, &s, (*Codec).Int)
		var b []byte
		c2 := NewDecoder(lenPrefixed(n))
		c2.Bytes(&b)
		var m map[string]uint32
		c3 := NewDecoder(lenPrefixed(n))
		Map(c3, &m, (*Codec).Str, (*Codec).U32)
		if c.Err() == nil || c2.Err() == nil || c3.Err() == nil {
			t.Fatalf("count %d over 4 bytes of input decoded without error", n)
		}
	}
	runtime.ReadMemStats(&ms1)
	if grew := ms1.TotalAlloc - ms0.TotalAlloc; grew > uint64(len(wire)) {
		t.Fatalf("hostile counts allocated %d bytes; the whole valid input is %d", grew, len(wire))
	}
}

// lenPrefixed is a count of n followed by only four bytes of input.
func lenPrefixed(n uint32) []byte {
	var buf bytes.Buffer
	c := NewEncoder(&buf)
	c.U32(&n)
	c.U32(&n)
	return buf.Bytes()
}

// TestDrawCountBudget pins the replay budget: counts a snapshot of this size
// can justify pass and are charged; one it cannot fails.
func TestDrawCountBudget(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	counts := []uint64{drawsBase, 16 * drawsPerByte, 1 << 55}
	for i := range counts {
		enc.DrawCount(&counts[i])
	}
	dec := NewDecoder(buf.Bytes()) // 24 bytes of input
	var a, b, c uint64
	dec.DrawCount(&a)
	dec.DrawCount(&b)
	if dec.Err() != nil || a != counts[0] || b != counts[1] {
		t.Fatalf("justified counts rejected: %d %d %v", a, b, dec.Err())
	}
	dec.DrawCount(&c)
	if dec.Err() == nil || c != 0 {
		t.Fatalf("a 2^55 draw count over 24 bytes of input was accepted (%d, %v)", c, dec.Err())
	}
}
