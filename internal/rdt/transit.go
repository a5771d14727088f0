package rdt

import "realtracer/internal/netsim"

// The release half of an RDT packet's life, and the shard-transit snapshots
// that share it (netsim.Transferable / TransitReleasable, matched
// structurally). A packet handed to a transport Send is released exactly
// once, by whoever reads it last: the network when it drops the packet or
// has snapshotted it for another shard, the receiving transport once the
// delivery callback has returned. What the release does depends only on what
// the packet is. An original goes back to the arena it was leased from
// (arena.go). A snapshot — a packet crossing a shard boundary carries its own
// copy of the active variant and every slice it references, in one pooled
// transitPacket leased from the sending shard's transit pool — goes to the
// receiving shard's pool.
//
// Receivers therefore keep no pointer into a packet past their callback: the
// player's FEC window records a packet's sequence number, not the packet,
// and the server copies a Report by value before its check timer reads it.

// transitClass is the pool slot for RDT transit snapshots.
var transitClass = netsim.RegisterTransitClass()

// transitPacket is the pooled snapshot storage: the Packet head plus
// inline variants and reusable slice backings. Packet.transit points back
// here on a leased copy and is nil on every original.
type transitPacket struct {
	pkt    Packet
	leased bool

	data   Data
	report Report
	repair Repair
	buf    BufferState
	eos    EndOfStream
	nack   Nack

	payload []byte
	parity  []byte
	meta    []RepairMeta
	seqs    []uint32
}

// TransitCopy implements netsim.Transferable.
func (p *Packet) TransitCopy(tp *netsim.TransitPool) any {
	var t *transitPacket
	if v := tp.Get(transitClass); v != nil {
		t = v.(*transitPacket)
	} else {
		t = &transitPacket{}
		t.pkt.transit = t
	}
	t.leased = true
	cp := &t.pkt
	cp.Kind = p.Kind
	cp.Data, cp.Report, cp.Repair, cp.BufferState, cp.EOS, cp.Nack = nil, nil, nil, nil, nil, nil
	if p.Data != nil {
		t.data = *p.Data
		if p.Data.Payload != nil {
			t.payload = append(t.payload[:0], p.Data.Payload...)
			t.data.Payload = t.payload
		}
		cp.Data = &t.data
	}
	if p.Report != nil {
		t.report = *p.Report
		cp.Report = &t.report
	}
	if p.Repair != nil {
		t.repair = *p.Repair
		t.meta = append(t.meta[:0], p.Repair.Meta...)
		t.repair.Meta = t.meta
		if p.Repair.Parity != nil {
			t.parity = append(t.parity[:0], p.Repair.Parity...)
			t.repair.Parity = t.parity
		} else {
			t.repair.Parity = nil
		}
		cp.Repair = &t.repair
	}
	if p.BufferState != nil {
		t.buf = *p.BufferState
		cp.BufferState = &t.buf
	}
	if p.EOS != nil {
		t.eos = *p.EOS
		cp.EOS = &t.eos
	}
	if p.Nack != nil {
		t.nack = *p.Nack
		t.seqs = append(t.seqs[:0], p.Nack.Seqs...)
		t.nack.Seqs = t.seqs
		cp.Nack = &t.nack
	}
	return cp
}

// TransitRelease implements netsim.TransitReleasable: an original's cells go
// back to its arena, a leased copy to the receiving shard's pool. Releasing
// a copy twice, or a packet that is neither, does nothing.
func (p *Packet) TransitRelease(tp *netsim.TransitPool) {
	if p.home != nil {
		p.home.release(p)
		return
	}
	t := p.transit
	if t == nil || !t.leased {
		return
	}
	t.leased = false
	tp.Put(transitClass, t)
}
