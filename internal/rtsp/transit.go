package rtsp

import "realtracer/internal/netsim"

// Shard-transit snapshots for RTSP messages (netsim.Transferable /
// TransitReleasable, matched structurally). Control messages are consumed
// synchronously by their receive callbacks — the server parses the method
// and headers, the player copies what it keeps (session id string, clip
// description via ParseClipDesc) — so the snapshot can be recycled by the
// receiving transport as soon as the callback returns. The spilled header
// list and body backing are reused across leases.

// transitClass is the pool slot for RTSP transit snapshots.
var transitClass = netsim.RegisterTransitClass()

// transitMessage is the pooled snapshot storage: a Message head plus
// reusable backing for a spilled header list and the body. Message.transit
// points back here on a leased copy and is nil on every original, making
// TransitRelease a safe no-op outside sharded runs.
type transitMessage struct {
	msg    Message
	leased bool
	spill  []field
	body   []byte
}

// TransitCopy implements netsim.Transferable. Copying the head copies the
// inline headers; a spilled list and the body are copied into the
// snapshot's own backing, so the copy shares no storage with m.
func (m *Message) TransitCopy(tp *netsim.TransitPool) any {
	var t *transitMessage
	if v := tp.Get(transitClass); v != nil {
		t = v.(*transitMessage)
	} else {
		t = &transitMessage{}
	}
	t.leased = true
	t.msg = *m
	t.msg.transit = t
	if m.hdr.spill != nil {
		t.spill = append(t.spill[:0], m.hdr.spill...)
		t.msg.hdr.spill = t.spill
	}
	if m.Body != nil {
		t.body = append(t.body[:0], m.Body...)
		t.msg.Body = t.body
	} else {
		t.msg.Body = nil
	}
	return &t.msg
}

// TransitRelease implements netsim.TransitReleasable: a leased copy goes
// back to the receiving shard's pool; originals (and double releases) are
// no-ops.
func (m *Message) TransitRelease(tp *netsim.TransitPool) {
	t := m.transit
	if t == nil || !t.leased {
		return
	}
	t.leased = false
	tp.Put(transitClass, t)
}
