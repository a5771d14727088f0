package study

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"realtracer/internal/rdt"
	"realtracer/internal/snap"
)

// peek returns the named field of the struct v is, points to or holds,
// readable though unexported (the reflective reach TestSyncCoversEveryField
// uses to perturb fields, here only to look).
func peek(v reflect.Value, name string) reflect.Value {
	for v.Kind() == reflect.Pointer || v.Kind() == reflect.Interface {
		v = v.Elem()
	}
	f := v.FieldByName(name)
	if !f.IsValid() {
		panic(fmt.Sprintf("peek: %v has no field %q any more", v.Type(), name))
	}
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
}

// parkedPackets finds what nothing but a snapshot reads: the rdt packets in
// the reorder buffer of every finished player's closed TCP data conn, parked
// there until the player is recycled. Keyed by conn address and segment seq.
func parkedPackets(w *World) map[string]*rdt.Packet {
	out := map[string]*rdt.Packet{}
	for _, tr := range worldTracers(w) {
		pl := peek(reflect.ValueOf(tr), "pl")
		if pl.IsNil() {
			continue
		}
		conn := peek(pl, "data")
		if conn.IsNil() || conn.Elem().Type().Elem().Name() != "simTCP" || !peek(conn, "closed").Bool() {
			continue
		}
		ring := peek(peek(conn, "reorder"), "ring")
		for i := 0; i < ring.Len(); i++ {
			if seg := ring.Index(i); !seg.IsNil() {
				if pkt, ok := peek(seg, "payload").Interface().(*rdt.Packet); ok {
					out[fmt.Sprintf("%v/%d", peek(conn, "laddr"), peek(seg, "seq").Uint())] = pkt
				}
			}
		}
	}
	return out
}

// walked is what a snapshot writes for pkt.
func walked(t *testing.T, pkt *rdt.Packet) string {
	t.Helper()
	var buf bytes.Buffer
	c := snap.NewEncoder(&buf)
	pkt.Sync(c)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// arenaTenants maps every server session arena in w, live or pooled, to the
// session it serves now and how many media packets that session has minted.
func arenaTenants(w *World) map[uintptr]arenaTenant {
	out := map[uintptr]arenaTenant{}
	for _, srv := range w.Servers {
		add := func(sess reflect.Value) {
			out[peek(sess, "arena").UnsafeAddr()] = arenaTenant{
				peek(sess, "id").String(), peek(sess, "videoSeq").Uint() + peek(sess, "audioSeq").Uint()}
		}
		for it := peek(reflect.ValueOf(srv), "sessions").MapRange(); it.Next(); {
			add(it.Value())
		}
		for free, i := peek(reflect.ValueOf(srv), "sessFree"), 0; i < free.Len(); i++ {
			add(free.Index(i))
		}
	}
	return out
}

type arenaTenant struct {
	id     string
	minted uint64
}

// TestParkedReorderBufferOutlivesItsSession cuts a world at the one place a
// snapshot reads packet memory nothing else does. A player that finishes a
// TCP clip with a hole in its stream closes its data conn with the segments
// past the hole still in the reorder buffer, and keeps the conn — a snapshot
// walks it — until the player is recycled for its next clip. Long before
// that the server has reaped the session that sent them and leased the
// session object, arena and all, to another client. While an arena was
// rewound at that point the parked segments' payloads were the new tenant's
// packets, or zeros, and a snapshot wrote those; now a parked segment keeps
// the reference it arrived with, so the cells stay out of the free-list and
// the snapshot writes the packets that were sent. The world is stepped to the
// first instant at which a parked packet's arena has a new tenant that has
// already minted more packets than the sender ever did (a rewound arena would
// have reused the cell by then), and there: every parked packet still walks
// to the bytes it walked to when it was parked, the resumed world's copy of
// it walks to the same bytes, and the resumed world finishes with the
// straight-through records.
func TestParkedReorderBufferOutlivesItsSession(t *testing.T) {
	opt := Options{Seed: 7, MaxUsers: 64, ClipCap: 2, Workload: "poisson", Arrivals: 128}
	w, err := NewWorld(opt)
	if err != nil {
		t.Fatal(err)
	}
	type parked struct {
		bytes  string
		arena  uintptr
		sender arenaTenant
	}
	seen := map[string]*parked{}
	outlived := 0
	for at := time.Minute; outlived == 0; at += 10 * time.Second {
		if at > 30*time.Minute {
			t.Fatal("no parked reorder buffer outlived its sender session's recycle in 30 minutes")
		}
		if err := w.RunUntil(at); err != nil {
			t.Fatal(err)
		}
		tenants, now := arenaTenants(w), parkedPackets(w)
		for key := range seen {
			if now[key] == nil {
				delete(seen, key) // its player moved on
			}
		}
		for key, pkt := range now {
			p := seen[key]
			if p == nil {
				p = &parked{bytes: walked(t, pkt), arena: peek(reflect.ValueOf(pkt), "home").Pointer()}
				p.sender = tenants[p.arena]
				seen[key] = p
			}
			switch tenant := tenants[p.arena]; {
			case tenant.id == p.sender.id:
				p.sender = tenant // still sending
			case tenant.minted > p.sender.minted:
				outlived++
			}
		}
	}
	t.Logf("at %v: %d packets parked in closed conns, %d of them in an arena its next tenant has outgrown", w.Clock.Now(), len(seen), outlived)

	for key, pkt := range parkedPackets(w) {
		if got := walked(t, pkt); got != seen[key].bytes {
			t.Errorf("parked packet %s walks to %x, it was parked as %x: its cell was recycled under the reorder buffer", key, got, seen[key].bytes)
		}
	}
	cut := checkpoint(t, w)
	resumed, err := Resume(bytes.NewReader(cut), nil)
	if err != nil {
		t.Fatal(err)
	}
	restored := parkedPackets(resumed)
	for key, p := range seen {
		if pkt := restored[key]; pkt == nil {
			t.Errorf("parked packet %s is not in the resumed world", key)
		} else if got := walked(t, pkt); got != p.bytes {
			t.Errorf("parked packet %s was restored as %x, it was sent as %x", key, got, p.bytes)
		}
	}
	res, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	straight, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recordsBytes(t, res.Records), recordsBytes(t, straight.Records)) {
		t.Error("records after resume differ from the straight-through run")
	}
	checkLeases(t, resumed)
}
