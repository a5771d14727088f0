package packet

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestWriterReaderRoundTrip(t *testing.T) {
	w := NewWriter(64)
	w.U8(0xAB)
	w.U16(0xBEEF)
	w.U32(0xDEADBEEF)
	w.U64(0x0123456789ABCDEF)
	w.String16("hello")
	w.Bytes16([]byte{1, 2, 3})
	w.Raw([]byte{9, 9})

	r := NewReader(w.Bytes())
	if r.U8() != 0xAB || r.U16() != 0xBEEF || r.U32() != 0xDEADBEEF || r.U64() != 0x0123456789ABCDEF {
		t.Fatal("fixed-width round trip failed")
	}
	if r.String16() != "hello" {
		t.Fatal("string round trip failed")
	}
	if !bytes.Equal(r.Bytes16(), []byte{1, 2, 3}) {
		t.Fatal("bytes round trip failed")
	}
	if !bytes.Equal(r.Raw(2), []byte{9, 9}) {
		t.Fatal("raw round trip failed")
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", r.Err(), r.Remaining())
	}
}

func TestReaderShortBufferSticky(t *testing.T) {
	r := NewReader([]byte{1})
	r.U32()
	if r.Err() != ErrShortBuffer {
		t.Fatalf("want ErrShortBuffer, got %v", r.Err())
	}
	// Sticky: subsequent reads return zero values without panicking.
	if r.U8() != 0 || r.U16() != 0 || r.String16() != "" {
		t.Fatal("sticky error reads should be zero")
	}
}

func TestBytes16TruncatedLength(t *testing.T) {
	w := NewWriter(8)
	w.U16(100) // claims 100 bytes follow
	w.Raw([]byte{1, 2})
	r := NewReader(w.Bytes())
	if r.Bytes16() != nil || r.Err() != ErrShortBuffer {
		t.Fatal("truncated Bytes16 not detected")
	}
}

func TestBytes16TooLargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized Bytes16 should panic")
		}
	}()
	NewWriter(0).Bytes16(make([]byte, 70000))
}

// Property: any sequence of fields round-trips exactly.
func TestPropertyFieldRoundTrip(t *testing.T) {
	f := func(a uint8, b uint16, c uint32, d uint64, s string, blob []byte) bool {
		if len(s) > 60000 || len(blob) > 60000 {
			return true
		}
		w := NewWriter(32)
		w.U8(a)
		w.U16(b)
		w.U32(c)
		w.U64(d)
		w.String16(s)
		w.Bytes16(blob)
		r := NewReader(w.Bytes())
		okBlob := r2bytes(r, a, b, c, d, s, blob)
		return okBlob && r.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func r2bytes(r *Reader, a uint8, b uint16, c uint32, d uint64, s string, blob []byte) bool {
	if r.U8() != a || r.U16() != b || r.U32() != c || r.U64() != d {
		return false
	}
	if r.String16() != s {
		return false
	}
	got := r.Bytes16()
	if len(got) != len(blob) {
		return false
	}
	return bytes.Equal(got, blob)
}

func TestChecksumDetectsCorruption(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog")
	sum := Checksum(data)
	for i := range data {
		corrupted := append([]byte(nil), data...)
		corrupted[i] ^= 0x01
		if Checksum(corrupted) == sum {
			t.Fatalf("single-bit corruption at %d not detected", i)
		}
	}
}

func TestChecksumOddLength(t *testing.T) {
	if Checksum([]byte{0xFF}) == Checksum([]byte{0xFF, 0x00, 0x01}) {
		t.Fatal("odd-length handling suspicious")
	}
	_ = Checksum(nil) // must not panic
}

// Property: checksum is deterministic and input-order sensitive.
func TestPropertyChecksumDeterministic(t *testing.T) {
	f := func(b []byte) bool {
		return Checksum(b) == Checksum(append([]byte(nil), b...))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
