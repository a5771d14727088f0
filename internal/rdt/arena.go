package rdt

import "realtracer/internal/lease"

// Arena is a per-session pool of the packet structs both ends of a
// connection mint on the hot path: media Data and its Packet wrapper,
// receiver Reports, BufferState updates, NACKs, FEC Repair packets and the
// end-of-stream marker. A cell is leased to whoever asks for a packet and
// comes back when its last reader is done with it; cells are carved from
// chunked backing arrays only while the free-lists are empty, so an arena
// grows to the session's working set — the retransmit window plus what is in
// flight — and stops, however many packets the session sends.
//
// The lifetime rule is the wire's, and it is the same for an original as for
// a shard-transit copy (transit.go): a packet handed to a transport Send is
// released exactly once, by TransitRelease — when the network drops it, when
// a sharded world has snapshotted it at the WAN edge, or when the receiving
// transport's callback has returned or its conn has closed with the packet
// still buffered — and the release hands every cell back to the arena it was
// leased from. Three things keep that safe:
//
//   - A sender that wants a packet's Data after the send takes its own
//     reference (Hold) BEFORE Send: a send-side drop releases synchronously.
//     A Data cell counts its holders — one per wrapper from Data or Wrap,
//     one per Hold — and goes back when the last lets go (Drop).
//   - A cell is cleared when it is released and releasing it again panics: a
//     stale reader sees zeros, never a plausible neighbour.
//   - Holder counts are not part of a snapshot; a restore rebuilds them from
//     who holds the restored cell (the server's retransmit-window walk).
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
// how many of them are on lease now: the growth and conservation audits.
func (a *Arena) Cells() (carved, leased int) {
	carved = a.packets.Carved() + a.datas.Carved() + a.reports.Carved() + a.bufs.Carved() +
		a.eoss.Carved() + a.nacks.Carved() + a.repairs.Carved()
	leased = a.packets.Leased() + a.datas.Leased() + a.reports.Leased() + a.bufs.Leased() +
		a.eoss.Leased() + a.nacks.Leased() + a.repairs.Leased()
	return carved, leased
}

// packet leases a wrapper of the given kind.
func (a *Arena) packet(kind Type) *Packet {
	p := a.packets.Get()
	p.Kind, p.home = kind, a
	return p
}

// Data returns a zeroed media packet: the Packet wrapper and its Data both
// live in the arena, and the wrapper is the Data's one holder.
func (a *Arena) Data() *Packet { return a.Wrap(a.datas.Get()) }

// Wrap returns an arena Packet around an existing Data of this arena, as one
// more holder of it — the retransmit path, which re-sends a Data the
// sender's window still holds.
func (a *Arena) Wrap(d *Data) *Packet {
	p := a.packet(TypeData)
	p.Data = a.Hold(d)
	return p
}

// NewData returns a bare zeroed Data cell (no Packet wrapper) held once, by
// the caller — a snapshot restore refills the retransmit window with these.
func (a *Arena) NewData() *Data { return a.Hold(a.datas.Get()) }

// Hold adds a holder to d and returns it.
func (a *Arena) Hold(d *Data) *Data {
	d.holds++
	return d
}

// Drop lets one holder of d go; the last one returns the cell.
func (a *Arena) Drop(d *Data) {
	if d.holds <= 0 {
		panic("rdt: Data cell released twice")
	}
	if d.holds--; d.holds == 0 {
		a.datas.Put(d)
	}
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

// release takes back a wrapper this arena leased, and with it the wrapper's
// hold on the variant cell. A released wrapper keeps nothing but its way
// home, so releasing it again finds no Kind and says so.
func (a *Arena) release(p *Packet) {
	switch p.Kind {
	case TypeData:
		a.Drop(p.Data)
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
