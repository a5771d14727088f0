// Package packet provides the low-level wire primitives shared by the RDT
// data codec and the RTSP control codec: a bounds-checked big-endian
// reader/writer pair and a 16-bit Internet-style checksum.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrShortBuffer is returned when a read runs past the end of the input.
var ErrShortBuffer = errors.New("packet: short buffer")

// Writer appends big-endian fields to a byte slice. The zero value is ready
// to use; Bytes returns the accumulated encoding.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with capacity preallocated for n bytes.
func NewWriter(n int) *Writer { return &Writer{buf: make([]byte, 0, n)} }

// Bytes returns the encoded bytes. The slice aliases the writer's buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// Reset truncates the writer to empty while keeping its capacity, so one
// Writer can encode a stream of messages without re-allocating. Do not Reset
// while a slice returned by Bytes is still in use — it aliases the buffer.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U16 appends a big-endian uint16.
func (w *Writer) U16(v uint16) { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }

// U32 appends a big-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }

// U64 appends a big-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }

// Bytes16 appends a 16-bit length prefix followed by b. It panics if b
// exceeds 64 KiB; wire messages never carry blobs that large.
func (w *Writer) Bytes16(b []byte) {
	if len(b) > 0xFFFF {
		panic(fmt.Sprintf("packet: Bytes16 blob too large: %d", len(b)))
	}
	w.U16(uint16(len(b)))
	w.buf = append(w.buf, b...)
}

// String16 appends s with a 16-bit length prefix.
func (w *Writer) String16(s string) { w.Bytes16([]byte(s)) }

// zeros is a shared source of zero padding for Zeros16.
var zeros [4096]byte

// Zeros16 appends a 16-bit length prefix followed by n zero bytes without
// allocating a scratch slice — the encoding of a simulation payload whose
// bytes are synthetic padding (rdt.Data.PadLen).
func (w *Writer) Zeros16(n int) {
	if n < 0 || n > 0xFFFF {
		panic(fmt.Sprintf("packet: Zeros16 length out of range: %d", n))
	}
	w.U16(uint16(n))
	for n > 0 {
		k := n
		if k > len(zeros) {
			k = len(zeros)
		}
		w.buf = append(w.buf, zeros[:k]...)
		n -= k
	}
}

// Raw appends b with no prefix.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Truncate shortens the writer to n bytes; encoders use it to roll back a
// partially written message on error. It panics if n exceeds the current
// length.
func (w *Writer) Truncate(n int) {
	if n < 0 || n > len(w.buf) {
		panic(fmt.Sprintf("packet: Truncate(%d) outside buffer of %d", n, len(w.buf)))
	}
	w.buf = w.buf[:n]
}

// Reader consumes big-endian fields from a byte slice. Errors are sticky:
// after the first failure all subsequent reads return zero values and Err
// reports the failure.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over b. The reader does not copy b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first error encountered, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = ErrShortBuffer
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Bytes16 reads a 16-bit length prefix and then that many bytes. The result
// aliases the input buffer.
func (r *Reader) Bytes16() []byte {
	n := int(r.U16())
	return r.take(n)
}

// String16 reads a 16-bit length-prefixed string.
func (r *Reader) String16() string { return string(r.Bytes16()) }

// Raw reads n bytes without a prefix.
func (r *Reader) Raw(n int) []byte { return r.take(n) }

// Checksum computes the 16-bit one's-complement Internet checksum of b
// (RFC 1071 style), used to validate RDT packets carried over lossy paths.
func Checksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xFFFF) + sum>>16
	}
	return ^uint16(sum)
}
