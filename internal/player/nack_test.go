package player

import (
	"testing"
	"time"

	"realtracer/internal/rdt"
	"realtracer/internal/simclock"
	"realtracer/internal/transport"
	"realtracer/internal/vclock"
)

// udpStub is a data conn that reports UDP and swallows what it is sent.
type udpStub struct{ transport.Conn }

func (udpStub) Protocol() transport.Protocol { return transport.UDP }
func (udpStub) Send(any, int) error          { return nil }

// TestHostileSequenceJumpIsBounded feeds one video packet whose sequence
// number claims a 2^31-packet gap — a hostile live server, or a crafted
// snapshot. The player must return promptly without queueing a NACK per
// missing number, and the expiry sweep that follows the jump must not walk
// the gap either.
func TestHostileSequenceJumpIsBounded(t *testing.T) {
	p := New(Config{Clock: vclock.Sim{C: simclock.New()}})
	p.data = udpStub{}
	// Fill the FEC window first so the expiry sweep has something to do.
	for seq := uint32(1); seq <= 600; seq++ {
		p.onDataPacket(&rdt.Data{Stream: rdt.StreamVideo, Seq: seq, FragCount: 1})
	}
	start := time.Now()
	p.onDataPacket(&rdt.Data{Stream: rdt.StreamVideo, Seq: 1 << 31, FragCount: 1})
	if took := time.Since(start); took > time.Second {
		t.Fatalf("one packet with Seq 1<<31 took %v", took)
	}
	if n := len(p.nackOutstanding); n != 0 {
		t.Fatalf("%d NACKs queued for a 2^31-packet gap, want none", n)
	}
	if n := len(p.haveSeq); n != 1 {
		t.Fatalf("FEC window holds %d packets after the jump, want only the newest", n)
	}
	if p.highestSeq != 1<<31 {
		t.Fatalf("highestSeq = %d", p.highestSeq)
	}

	// An ordinary gap is still NACKed.
	p.onDataPacket(&rdt.Data{Stream: rdt.StreamVideo, Seq: 1<<31 + 4, FragCount: 1})
	if n := len(p.nackOutstanding); n != 3 {
		t.Fatalf("%d NACKs queued for a 3-packet gap, want 3", n)
	}
}
