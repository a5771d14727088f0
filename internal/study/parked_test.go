package study

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"
	"unsafe"
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

// TestParkedReorderBufferOutlivesItsSession cuts a world where closed conns
// would have the most to hold: at 3m40s of this world, players have finished
// TCP clips with a hole in the stream — their data conns closed with the
// segments past the hole still in the reorder buffer — and servers have reaped
// sessions with a backlog unsent and leased their arenas to other clients. A
// closed conn holds nothing, so a snapshot has no dead conn's packet memory to
// read: every closed conn reachable from the world at the cut is empty (some
// having frozen a backlog, which a server still paces against), so is every
// one the snapshot restores, and the resumed world finishes with the
// straight-through records and every cell back in its pool.
func TestParkedReorderBufferOutlivesItsSession(t *testing.T) {
	opt := Options{Seed: 7, MaxUsers: 64, ClipCap: 2, Workload: "poisson", Arrivals: 128}
	w := worldAt(t, opt, 3*time.Minute+40*time.Second)
	closed, backlogged := checkClosedConns(t, w)
	if closed == 0 || backlogged == 0 {
		t.Fatalf("%d closed conns at the cut, %d with a frozen backlog: the cut no longer lands where conns close mid-stream", closed, backlogged)
	}
	resumed, err := Resume(bytes.NewReader(checkpoint(t, w)), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Fewer than at the cut: only the conns somebody walks are in a snapshot.
	if c, b := checkClosedConns(t, resumed); c == 0 || b == 0 {
		t.Errorf("the resumed world has %d closed conns, %d with a frozen backlog; the cut had %d and %d", c, b, closed, backlogged)
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
