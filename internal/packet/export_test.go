package packet

// String16 appends s with a 16-bit length prefix.
func (w *Writer) String16(s string) { w.Bytes16([]byte(s)) }

// String16 reads a 16-bit length-prefixed string.
func (r *Reader) String16() string { return string(r.Bytes16()) }
