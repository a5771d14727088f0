package rdt

import (
	"realtracer/internal/lease"
	"realtracer/internal/rtsp"
)

// Arena is a pool of the packet structs both ends of a connection mint on
// the hot path: media Data and its Packet wrapper, receiver Reports,
// BufferState updates, NACKs, FEC Repair packets and the end-of-stream
// marker; and, in Messages, of the RTSP requests and replies of the control
// connection beside them. A simulated world keeps one per shard, shared by
// every server and player on the shard; a server or player built outside a
// world makes its own. A cell is leased to whoever asks for a packet or a
// message and comes back when its reader is done with it; cells are carved
// from chunked backing arrays only while the free-lists are empty, so an
// arena grows to what its owners have in flight at once and stops, however
// many packets and messages they send.
//
// Every cell has exactly one reader, and the lifetime rule is the wire's, the
// same for an original as for a shard-transit copy (transit.go): a packet
// handed to a transport Send is released exactly once, by TransitRelease —
// when the network drops it, when a sharded world has snapshotted it at the
// WAN edge, or when the receiving transport's callback has returned or its
// conn has closed with the packet still buffered — and the release hands the
// wrapper and its variant back to the arena they were leased from. Nothing
// reads a packet after handing it to Send: a sender that needs its header
// again (the server's retransmit window) keeps a copy (RepairMeta), not the
// cell. A released cell is cleared and releasing it again panics, so a stale
// reader sees zeros, never a plausible neighbour. A message follows the same
// rule (rtsp.Pool); its one reader is the TCP segment that carries it.
//
// An Arena is single-threaded, like everything else behind one simulated
// clock: a sharded world releases an original on the shard that sent it,
// never on the one that receives the copy. The zero Arena is ready to use.
type Arena struct {
	packets lease.Pool[Packet]
	datas   lease.Pool[Data]
	reports lease.Pool[Report]
	bufs    lease.Pool[BufferState]
	eoss    lease.Pool[EndOfStream]
	nacks   lease.Pool[nackCell]
	repairs lease.Pool[repairCell]
	msgs    rtsp.Pool
}

// repairMetaCap bounds one repair cell's embedded metadata array. FEC
// groups are small (the server uses 8); the embedded array keeps Meta
// allocation-free for any group up to this size.
const repairMetaCap = 16

type nackCell struct {
	n    Nack
	seqs [MaxNackSeqs]uint32
}

type repairCell struct {
	r    Repair
	meta [repairMetaCap]RepairMeta
}

// Cells reports how many cells the arena has carved over its lifetime and
// how many of them are on lease now, RTSP messages included: the growth and
// conservation audits.
func (a *Arena) Cells() (carved, leased int) {
	carved, leased = a.msgs.Cells()
	carved += a.packets.Carved() + a.datas.Carved() + a.reports.Carved() + a.bufs.Carved() +
		a.eoss.Carved() + a.nacks.Carved() + a.repairs.Carved()
	leased += a.packets.Leased() + a.datas.Leased() + a.reports.Leased() + a.bufs.Leased() +
		a.eoss.Leased() + a.nacks.Leased() + a.repairs.Leased()
	return carved, leased
}

// Messages returns the arena's RTSP message pool.
func (a *Arena) Messages() *rtsp.Pool { return &a.msgs }

// packet leases a wrapper of the given kind.
func (a *Arena) packet(kind Type) *Packet {
	p := a.packets.Get()
	p.Kind, p.home = kind, a
	return p
}

// Data returns a zeroed media packet: the Packet wrapper and its Data both
// live in the arena.
func (a *Arena) Data() *Packet {
	p := a.packet(TypeData)
	p.Data = a.datas.Get()
	return p
}

// Report returns a zeroed receiver-report packet.
func (a *Arena) Report() *Packet {
	p := a.packet(TypeReport)
	p.Report = a.reports.Get()
	return p
}

// BufferState returns a zeroed buffer-state packet.
func (a *Arena) BufferState() *Packet {
	p := a.packet(TypeBufferState)
	p.BufferState = a.bufs.Get()
	return p
}

// EOS returns a zeroed end-of-stream packet.
func (a *Arena) EOS() *Packet {
	p := a.packet(TypeEndOfStream)
	p.EOS = a.eoss.Get()
	return p
}

// Nack returns a zeroed NACK packet whose Seqs slice is backed by the
// cell's embedded array: empty, with capacity MaxNackSeqs.
func (a *Arena) Nack() *Packet {
	p := a.packet(TypeNack)
	cell := a.nacks.Get()
	cell.n.Seqs, cell.n.cell = cell.seqs[:0], cell
	p.Nack = &cell.n
	return p
}

// Repair returns a zeroed FEC repair packet whose Meta slice is backed by
// the cell's embedded array: empty, with capacity repairMetaCap.
func (a *Arena) Repair() *Packet {
	p := a.packet(TypeRepair)
	cell := a.repairs.Get()
	cell.r.Meta, cell.r.cell = cell.meta[:0], cell
	p.Repair = &cell.r
	return p
}

// release takes back a wrapper this arena leased, and with it the variant
// cell. A released wrapper keeps nothing but its way home, so releasing it
// again finds no Kind and says so.
func (a *Arena) release(p *Packet) {
	switch p.Kind {
	case TypeData:
		a.datas.Put(p.Data)
	case TypeReport:
		a.reports.Put(p.Report)
	case TypeBufferState:
		a.bufs.Put(p.BufferState)
	case TypeEndOfStream:
		a.eoss.Put(p.EOS)
	case TypeNack:
		a.nacks.Put(p.Nack.cell)
	case TypeRepair:
		a.repairs.Put(p.Repair.cell)
	default:
		panic("rdt: Packet cell released twice")
	}
	a.packets.Put(p)
	p.home = a
}
