package rtsp

import (
	"fmt"

	"realtracer/internal/snap"
)

// Sync walks the message field-exactly for a world checkpoint. The wire
// codec (Marshal/Parse) is deliberately not reused here: it normalizes empty
// reason phrases and trims malformed headers, and a checkpoint must
// reproduce the in-memory message a receiver would have seen, not its
// canonicalized wire form.
//
// The headers walk as a count and then (key, value) pairs in key order — the
// bytes snap.Map wrote when they were a map. Decoding refuses pairs out of
// that order or a key twice: the list would not be one Set could have built.
func (m *Message) Sync(c *snap.Codec) {
	c.Tag("rtsp")
	c.Bool(&m.Request)
	c.Str(&m.Method)
	c.Str(&m.URL)
	c.Int(&m.Status)
	c.Str(&m.Reason)
	c.Int(&m.CSeq)
	fs := m.hdr.list()
	n := len(fs)
	c.Len(&n)
	if c.Reading() {
		m.hdr = header{}
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		var f field
		if !c.Reading() {
			f = fs[i]
		}
		c.Str(&f.key)
		c.Str(&f.value)
		if !c.Reading() || c.Err() != nil {
			continue
		}
		if last := m.hdr.list(); len(last) > 0 && last[len(last)-1].key >= f.key {
			c.Fail(fmt.Errorf("rtsp: snapshot header %q follows %q (keys must ascend, each once)", f.key, last[len(last)-1].key))
			return
		}
		m.hdr.set(f.key, f.value)
	}
	c.Bytes(&m.Body)
}
