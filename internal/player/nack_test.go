package player

import (
	"runtime"
	"testing"
	"time"

	"realtracer/internal/rdt"
	"realtracer/internal/simclock"
	"realtracer/internal/transport"
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
	p := New(Config{Clock: simclock.New()})
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
	if n := p.nackOutstanding.Len(); n != 0 {
		t.Fatalf("%d NACKs queued for a 2^31-packet gap, want none", n)
	}
	if n := p.haveSeq.Len(); n != 1 {
		t.Fatalf("FEC window holds %d packets after the jump, want only the newest", n)
	}
	if p.highestSeq != 1<<31 {
		t.Fatalf("highestSeq = %d", p.highestSeq)
	}

	// An ordinary gap is still NACKed.
	p.onDataPacket(&rdt.Data{Stream: rdt.StreamVideo, Seq: 1<<31 + 4, FragCount: 1})
	if n := p.nackOutstanding.Len(); n != 3 {
		t.Fatalf("%d NACKs queued for a 3-packet gap, want 3", n)
	}

	// The same jump with only a handful of packets held, so no expiry sweep
	// runs to clean up after it. The window is a ring as wide as the sequence
	// numbers it holds; a seq a whole nackMaxGap or more from the others must
	// restart the window on the newcomer instead of stretching the ring
	// across the gap — in either direction.
	t.Run("handful held", func(t *testing.T) {
		p := New(Config{Clock: simclock.New()})
		p.data = udpStub{}
		for seq := uint32(1); seq <= 5; seq++ {
			p.onDataPacket(&rdt.Data{Stream: rdt.StreamVideo, Seq: seq, FragCount: 1})
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for _, seq := range []uint32{1 << 31, 7, 1<<31 + 1, 1<<32 - 1, 0} {
			p.onDataPacket(&rdt.Data{Stream: rdt.StreamVideo, Seq: seq, FragCount: 1})
			if n := p.haveSeq.Len(); n != 1 || !p.haveSeq.Get(uint64(seq)) {
				t.Fatalf("after seq %d the FEC window holds %d packets (newcomer present: %v), want the newcomer alone",
					seq, n, p.haveSeq.Get(uint64(seq)))
			}
		}
		if took := time.Since(start); took > time.Second {
			t.Fatalf("five far-apart packets took %v", took)
		}
		runtime.ReadMemStats(&after)
		// A ring may grow to nackMaxGap one-byte slots and no further.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*nackMaxGap {
			t.Fatalf("five far-apart packets allocated %d bytes", grew)
		}
		// Seqs closer than that share the window.
		p.onDataPacket(&rdt.Data{Stream: rdt.StreamVideo, Seq: nackMaxGap - 1, FragCount: 1})
		if n := p.haveSeq.Len(); n != 2 {
			t.Fatalf("FEC window holds %d packets, want seq 0 and seq %d", n, nackMaxGap-1)
		}
	})
}

// TestResetKeepsFECWindowStorageNotEntries: a recycled player starts with an
// empty FEC window — no predecessor seq is a member — but on the ring its
// predecessor grew, so filling it again allocates nothing.
func TestResetKeepsFECWindowStorageNotEntries(t *testing.T) {
	cfg := Config{Clock: simclock.New()}
	p := New(cfg)
	const held = 400
	for seq := uint32(0); seq < held; seq++ {
		p.onDataPacket(&rdt.Data{Stream: rdt.StreamVideo, Seq: seq, FragCount: 1})
	}
	if n := p.haveSeq.Len(); n != held {
		t.Fatalf("first session holds %d seqs, want %d", n, held)
	}
	p.state = "done"
	p.Reset(cfg)
	if n := p.haveSeq.Len(); n != 0 || p.haveSeq.Get(held-1) {
		t.Fatalf("recycled player inherited FEC state: %d seqs, seq %d present: %v",
			n, held-1, p.haveSeq.Get(held-1))
	}
	if allocs := testing.AllocsPerRun(1, func() {
		for seq := range uint64(held) {
			p.haveSeq.Put(seq, true)
		}
		p.haveSeq.Reset()
	}); allocs != 0 {
		t.Fatalf("refilling the recycled FEC window to %d seqs allocated %v times", held, allocs)
	}
}
