package rtsp

import (
	"reflect"
	"testing"

	"realtracer/internal/netsim"
)

// TestMessageLeaseLifecycle walks a request and a reply through lease,
// release and re-lease: a released message reads as zero but for its way
// home, the next lease gets that very cell back (so nothing new is carved),
// and the books balance.
func TestMessageLeaseLifecycle(t *testing.T) {
	var p Pool
	req := p.Request(MethodSetup, "rtsp://srv/clip000.rm", 4)
	req.Set("Transport", "proto=udp;client_addr=cli:20000")
	resp := p.Response(req, StatusOK)
	resp.Set("Session", "sess-1")
	resp.Body = []byte("title=t\n")
	if resp.CSeq != 4 || resp.Reason != "OK" || resp.Request || !req.Request || req.Method != MethodSetup {
		t.Fatalf("leased request %+v and reply %+v", *req, *resp)
	}
	if carved, leased := p.Cells(); carved != 2 || leased != 2 {
		t.Fatalf("%d carved, %d on lease, want 2 and 2", carved, leased)
	}
	for _, m := range []*Message{req, resp} {
		m.TransitRelease(nil)
		if !reflect.DeepEqual(*m, Message{home: &p}) {
			t.Errorf("released message reads %+v, want zero", *m)
		}
	}
	if carved, leased := p.Cells(); carved != 2 || leased != 0 {
		t.Fatalf("after release: %d carved, %d on lease, want 2 and 0", carved, leased)
	}
	if again := p.Request(MethodPlay, "u", 5); again != resp || again.Get("Session") != "" || again.Body != nil {
		t.Errorf("the next lease got %p reading %+v, want the last cell released (%p), cleared", again, *again, resp)
	}
	if carved, _ := p.Cells(); carved != 2 {
		t.Errorf("re-lease carved a cell: %d carved", carved)
	}
}

// TestMessageSecondReleasePanics: a released message is on the free-list, or
// leased to the next request; releasing it again must not pass.
func TestMessageSecondReleasePanics(t *testing.T) {
	var p Pool
	m := p.Request(MethodPlay, "u", 1)
	netsim.ReleaseTransit(nil, m)
	defer func() {
		if recover() == nil {
			t.Error("releasing a message twice did not panic")
		}
	}()
	netsim.ReleaseTransit(nil, m)
}

// TestMessageTransitCopy: a pooled message crosses a shard boundary as a copy
// leased from the sending shard's transit pool. The copy reads as the
// original, headers included, and shares no header storage with it; the
// original goes home to its pool, the copy into the receiving shard's
// transit pool, and a copy released again, or a message in no pool, does
// nothing.
func TestMessageTransitCopy(t *testing.T) {
	var p Pool
	var send, recv netsim.TransitPool
	m := p.Request(MethodSetup, "rtsp://srv/clip000.rm", 2)
	for _, k := range []string{"A", "B", "C", "D"} { // one past the inline list
		m.Set("X-"+k, k)
	}
	m.Body = []byte("body")
	cp := m.TransitCopy(&send).(*Message)
	if cp == m || cp.Method != m.Method || cp.URL != m.URL || cp.CSeq != 2 || string(cp.Body) != "body" || cp.Get("X-D") != "D" {
		t.Fatalf("copy %+v of %+v", *cp, *m)
	}
	m.Set("X-A", "changed")
	if cp.Get("X-A") != "A" {
		t.Error("the copy shares its header list with the original")
	}

	netsim.ReleaseTransit(&send, m)
	if _, leased := p.Cells(); leased != 0 || m.Method != "" {
		t.Errorf("the original did not go home: %d on lease, reads %+v", leased, *m)
	}
	netsim.ReleaseTransit(&recv, cp)
	if !reflect.DeepEqual(*cp, Message{}) {
		t.Errorf("released copy reads %+v, want zero", *cp)
	}
	if got := recv.Get(transitClass); got != cp {
		t.Errorf("the receiving shard's transit pool holds %v, want the released copy", got)
	}
	recv.Put(transitClass, cp)
	netsim.ReleaseTransit(&recv, cp)
	if recv.Get(transitClass) != cp || recv.Get(transitClass) != nil {
		t.Error("a copy released twice went to the transit pool twice")
	}
	netsim.ReleaseTransit(&recv, &Message{Method: MethodPlay})
	if recv.Get(transitClass) != nil {
		t.Error("a message in no pool went to a transit pool")
	}
}
