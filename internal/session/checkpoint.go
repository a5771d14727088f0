package session

import (
	"fmt"

	"realtracer/internal/rdt"
	"realtracer/internal/rtsp"
	"realtracer/internal/snap"
)

// Snapshot tags for the application payloads a checkpoint can encounter on
// the wire or queued inside transport conns.
const (
	snapRTSP  = 1
	snapRDT   = 2
	snapHello = 3
)

// SnapSync is the application-payload walk for world checkpoints (a
// transport.AppSync): the three session-level payload types, each walked
// field-exactly by its own package.
func SnapSync(c *snap.Codec, payload *any) {
	var tag uint8
	switch (*payload).(type) {
	case *rtsp.Message:
		tag = snapRTSP
	case *rdt.Packet:
		tag = snapRDT
	case *DataHello:
		tag = snapHello
	}
	c.U8(&tag)
	if c.Reading() {
		switch tag {
		case snapRTSP:
			*payload = &rtsp.Message{}
		case snapRDT:
			*payload = &rdt.Packet{}
		case snapHello:
			*payload = &DataHello{}
		default:
			*payload = nil
		}
	}
	switch m := (*payload).(type) {
	case *rtsp.Message:
		m.Sync(c)
	case *rdt.Packet:
		m.Sync(c)
	case *DataHello:
		c.Str(&m.SessionID)
	default:
		c.Fail(fmt.Errorf("session: cannot checkpoint payload type %T (tag %d)", *payload, tag))
	}
}

// Sync walks the clip description field-exactly.
func (d *ClipDesc) Sync(c *snap.Codec) {
	c.Tag("desc")
	c.Str(&d.Title)
	c.Dur(&d.Duration)
	c.Bool(&d.Scalable)
	c.Bool(&d.Live)
	snap.Slice(c, &d.Encodings, func(c *snap.Codec, e *EncodingDesc) {
		c.F64(&e.TotalKbps)
		c.F64(&e.AudioKbps)
		c.F64(&e.FrameRate)
		c.Int(&e.Width)
		c.Int(&e.Height)
	})
}
