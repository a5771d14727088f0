package player

import (
	"testing"

	"realtracer/internal/rdt"
	"realtracer/internal/simclock"
	"realtracer/internal/transport"
	"realtracer/internal/vclock"
)

// tcpStub is a data conn that reports TCP, so sequence gaps queue no NACKs
// and the ledger holds only what a test puts there.
type tcpStub struct{ transport.Conn }

func (tcpStub) Protocol() transport.Protocol { return transport.TCP }
func (tcpStub) Send(any, int) error          { return nil }

// fecMember asks the player whether seq is in its FEC window, through one
// of the window's own consumers: a NACK flush retires an outstanding request
// exactly when its packet is a member. The window itself is left untouched.
func fecMember(p *Player, seq uint32) bool {
	p.nackOutstanding.Put(uint64(seq), 1)
	p.flushNacks()
	missing := p.nackOutstanding.Get(uint64(seq)) != 0
	p.nackOutstanding.Delete(uint64(seq))
	return !missing
}

// TestFECWindowEvictsByCount pins the FEC window's expiry rule, which is
// triggered by the window's size and not by a packet's age: once more than
// 512 packets are held, everything below highestSeq-512 goes — and not a
// packet earlier. Under loss the window therefore reaches well below
// highestSeq-512 between sweeps, and a late retransmission below the floor
// is a member until the next sweep. The rule is replayed on a plain map and
// the player must agree with it on every sequence number, every step of the
// way; duplicates of members must be ignored.
func TestFECWindowEvictsByCount(t *testing.T) {
	const window = 512
	p := New(Config{Clock: vclock.Sim{C: simclock.New()}})
	p.data = tcpStub{}

	ref := map[uint32]bool{}
	var highest uint32
	feed := func(seq uint32) {
		t.Helper()
		before := p.recvSeqCount
		p.onDataPacket(&rdt.Data{Stream: rdt.StreamVideo, Seq: seq, FragCount: 1})
		if isNew := p.recvSeqCount != before; isNew == ref[seq] {
			t.Fatalf("seq %d: member=%v in the reference, but the player took it as new=%v", seq, ref[seq], isNew)
		}
		if ref[seq] {
			return
		}
		ref[seq] = true
		if seq > highest {
			highest = seq
		}
		if len(ref) > window && highest > window {
			for s := range ref {
				if s < highest-window {
					delete(ref, s)
				}
			}
		}
	}
	agree := func(when string) {
		t.Helper()
		for s := uint32(0); s <= highest+2; s++ {
			if got := fecMember(p, s); got != ref[s] {
				t.Fatalf("%s: seq %d member=%v, reference says %v (highest %d, %d held)", when, s, got, ref[s], highest, len(ref))
			}
		}
	}
	lost := func(seq uint32) bool { return seq%5 == 1 || seq%5 == 3 } // 40 % loss

	// Fill to exactly the window: nothing has been evicted, however old.
	seq := uint32(0)
	for ; len(ref) < window; seq++ {
		if !lost(seq) {
			feed(seq)
		}
	}
	if highest <= window+300 {
		t.Fatalf("loss pattern too thin: %d packets held by seq %d", len(ref), highest)
	}
	agree("window full")
	if !fecMember(p, 0) {
		t.Fatalf("seq 0 evicted with %d packets held: expiry is by count, and highestSeq-%d = %d is no reason", len(ref), window, highest-window)
	}
	if p.seqFloor != 0 {
		t.Fatalf("seqFloor = %d before any sweep", p.seqFloor)
	}

	// One more packet passes the count: the sweep cuts at highestSeq-512.
	for lost(seq) {
		seq++
	}
	feed(seq)
	seq++
	agree("first sweep")
	if fecMember(p, 0) || p.seqFloor != highest-window {
		t.Fatalf("after the first sweep: seq 0 member=%v, seqFloor=%d, want evicted and %d", fecMember(p, 0), p.seqFloor, highest-window)
	}
	if len(ref) >= window {
		t.Fatalf("reference still holds %d after its sweep", len(ref))
	}

	// A late retransmission below the floor joins the window, a duplicate of
	// it is ignored (feed checks that), and the next sweep takes it.
	feed(0)
	if !fecMember(p, 0) || len(p.lowSeqs) != 1 || p.lowSeqs[0] != 0 {
		t.Fatalf("late seq 0: member=%v lowSeqs=%v", fecMember(p, 0), p.lowSeqs)
	}
	feed(0)
	feed(highest)
	agree("late retransmission held")
	for steps := 0; ref[0]; seq++ {
		if !lost(seq) {
			feed(seq)
			if steps++; steps%64 == 0 {
				agree("between sweeps")
			}
		}
	}
	agree("second sweep")
	if fecMember(p, 0) || len(p.lowSeqs) != 0 {
		t.Fatalf("after the second sweep: seq 0 member=%v lowSeqs=%v", fecMember(p, 0), p.lowSeqs)
	}

	// Several more sweeps, checked at every step near each one.
	for end := seq + 3*window; seq < end; seq++ {
		if !lost(seq) {
			feed(seq)
			if len(ref) >= window-1 || len(ref) < window*6/10+3 {
				agree("steady state")
			}
		}
	}
}

// TestRepairAllocatesNothing: the packet onRepair rebuilds from a parity
// group is consumed before onRepair returns, so it lives on the stack — a
// recovered packet costs exactly the allocations of one that arrived.
func TestRepairAllocatesNothing(t *testing.T) {
	const group, runs = 8, 200
	run := func(lose bool) float64 {
		p := New(Config{Clock: vclock.Sim{C: simclock.New()}})
		p.data = tcpStub{}
		base := uint32(0)
		allocs := testing.AllocsPerRun(runs, func() {
			rep := rdt.Repair{Stream: rdt.StreamVideo, BaseSeq: base, Group: group}
			var meta [group]rdt.RepairMeta
			for i := range meta {
				seq := base + uint32(i)
				meta[i] = rdt.RepairMeta{Seq: seq, FrameIndex: seq, FragCount: 1}
				if !lose || i != 3 {
					p.onDataPacket(&rdt.Data{Stream: rdt.StreamVideo, Seq: seq, FrameIndex: seq, FragCount: 1})
				}
			}
			rep.Meta = meta[:]
			p.onRepair(&rep)
			base += group
		})
		if lose && p.recovered != runs+1 || !lose && p.recovered != 0 {
			t.Fatalf("lose=%v: %d packets recovered in %d groups", lose, p.recovered, runs+1)
		}
		if p.recvSeqCount != (runs+1)*group {
			t.Fatalf("lose=%v: the player took %d packets of %d", lose, p.recvSeqCount, (runs+1)*group)
		}
		return allocs
	}
	if arrived, recovered := run(false), run(true); recovered > arrived {
		t.Errorf("a group with one packet recovered allocates %.2f times, one that arrived whole %.2f", recovered, arrived)
	}
}
