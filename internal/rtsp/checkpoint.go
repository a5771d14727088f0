package rtsp

import "realtracer/internal/snap"

// Sync walks the message field-exactly for a world checkpoint. The wire
// codec (Marshal/Parse) is deliberately not reused here: it normalizes empty
// reason phrases and trims malformed headers, and a checkpoint must
// reproduce the in-memory message a receiver would have seen, not its
// canonicalized wire form.
func (m *Message) Sync(c *snap.Codec) {
	c.Tag("rtsp")
	c.Bool(&m.Request)
	c.Str(&m.Method)
	c.Str(&m.URL)
	c.Int(&m.Status)
	c.Str(&m.Reason)
	c.Int(&m.CSeq)
	if c.Reading() {
		m.Header = make(map[string]string) // receivers index it unguarded
	}
	snap.Map(c, &m.Header, (*snap.Codec).Str, (*snap.Codec).Str)
	c.Bytes(&m.Body)
}
