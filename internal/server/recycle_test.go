package server

import (
	"testing"
	"time"

	"realtracer/internal/rtsp"
)

// TestSessionRecycleClearsState: a torn-down session's object goes back to
// the free-list, and the next SETUP leases that same object with every
// per-session field reset — no sequence number, retransmit-window entry,
// media position or started stream survives into the next client.
func TestSessionRecycleClearsState(t *testing.T) {
	r := newCtlRig(t, 0)

	setup := func() (string, *streamSession) {
		req := rtsp.NewRequest(rtsp.MethodSetup, "rtsp://srv/clip000.rm", 0)
		req.Set("Transport", rtsp.TransportSpec{Protocol: "udp", ClientDataAddr: "cli:20000"}.Format())
		req.Set("Bandwidth", "150")
		resp := r.request(req)
		if resp.Status != rtsp.StatusOK {
			t.Fatalf("setup status=%d", resp.Status)
		}
		id := resp.Get("Session")
		sess, ok := r.srv.sessions[id]
		if !ok {
			t.Fatalf("session %q not registered", id)
		}
		return id, sess
	}
	play := func(id string) {
		req := rtsp.NewRequest(rtsp.MethodPlay, "rtsp://srv/clip000.rm", 0)
		req.Set("Session", id)
		if got := r.request(req); got.Status != rtsp.StatusOK {
			t.Fatalf("play status=%d", got.Status)
		}
		r.clock.RunUntil(r.clock.Now() + 10*time.Second)
	}
	teardown := func(id string) {
		req := rtsp.NewRequest(rtsp.MethodTeardown, "rtsp://srv/clip000.rm", 0)
		req.Set("Session", id)
		if got := r.request(req); got.Status != rtsp.StatusOK {
			t.Fatalf("teardown status=%d", got.Status)
		}
	}

	id1, sess1 := setup()
	play(id1)
	// The first session must be visibly dirty or the recycle proves nothing:
	// UDP streaming populates the NACK retransmit window and advances the
	// sequence counters and media clock.
	held, lastSeq := sess1.sentVideo.Len(), uint64(sess1.videoSeq-1)
	if held == 0 || sess1.videoSeq == 0 || sess1.mediaPos == 0 {
		t.Fatalf("first session streamed nothing (sentVideo=%d videoSeq=%d mediaPos=%v)",
			held, sess1.videoSeq, sess1.mediaPos)
	}
	lastSent := sess1.sentVideo.Get(lastSeq)
	if lastSent == (sentMeta{}) {
		t.Fatalf("first session does not hold its newest video packet, seq %d", lastSeq)
	}
	teardown(id1)
	if len(r.srv.sessFree) != 1 || r.srv.sessFree[0] != sess1 {
		t.Fatalf("torn-down session not returned to the free-list (len=%d)", len(r.srv.sessFree))
	}

	id2, sess2 := setup()
	if sess2 != sess1 {
		t.Fatal("second SETUP built a fresh session instead of leasing the pooled one")
	}
	if len(r.srv.sessFree) != 0 {
		t.Fatalf("free-list not drained by the lease (len=%d)", len(r.srv.sessFree))
	}
	if id2 == id1 {
		t.Fatalf("recycled session kept its predecessor's ID %q", id2)
	}
	// At lease time — before PLAY — the recycled object must be clean.
	if n, m := sess2.sentVideo.Len(), sess2.sentVideo.Get(lastSeq); n != 0 || m != (sentMeta{}) {
		t.Fatalf("recycled session inherited %d retransmit-window headers (seq %d reads %+v)", n, lastSeq, m)
	}
	// What it does inherit is the window's storage: holding as many packets
	// as its predecessor did allocates nothing.
	if allocs := testing.AllocsPerRun(1, func() {
		for seq := range uint64(held) {
			sess2.sentVideo.Put(seq, lastSent)
		}
		sess2.sentVideo.Reset()
	}); allocs != 0 {
		t.Fatalf("refilling the recycled retransmit window to %d packets allocated %v times", held, allocs)
	}
	if sess2.videoSeq != 0 || sess2.audioSeq != 0 || sess2.mediaPos != 0 {
		t.Fatalf("recycled session inherited counters: videoSeq=%d audioSeq=%d mediaPos=%v",
			sess2.videoSeq, sess2.audioSeq, sess2.mediaPos)
	}
	if sess2.src != nil || sess2.playing || sess2.stopped {
		t.Fatalf("recycled session inherited stream state: src=%v playing=%v stopped=%v",
			sess2.src != nil, sess2.playing, sess2.stopped)
	}
	// And it must stream again, from scratch.
	play(id2)
	if sess2.videoSeq == 0 || sess2.mediaPos == 0 {
		t.Fatalf("recycled session did not stream (videoSeq=%d mediaPos=%v)", sess2.videoSeq, sess2.mediaPos)
	}
	if _, _, played, torndown := r.srv.Counters(); played != 2 || torndown != 1 {
		t.Fatalf("counters after recycle: played=%d torndown=%d", played, torndown)
	}
}
