// Package rdt implements the data-channel framing used between server and
// player, modeled on RealNetworks' Real Data Transport: media data packets
// with stream/sequence/timestamp headers, receiver reports that feed
// rate control and SureStream switching, XOR FEC repair packets ("special
// packets that correct errors", paper Section II.C), client buffer-state
// updates and an end-of-stream marker.
//
// Packets have a real binary wire format (validated by a checksum) so the
// same codec drives both the live-socket mode and, by reference-passing, the
// simulator.
package rdt

import (
	"errors"
	"fmt"

	"realtracer/internal/packet"
)

// Wire constants.
const (
	magic      = 0xD7 // first byte of every RDT packet
	version    = 1
	headerLen  = 4 // magic, version, type, flags
	MaxPayload = 16 * 1024
)

// Type discriminates RDT packet kinds.
type Type uint8

const (
	TypeInvalid     Type = iota
	TypeData             // media payload
	TypeReport           // receiver report (feedback)
	TypeRepair           // XOR FEC parity over a data group
	TypeBufferState      // client playout-buffer occupancy
	TypeEndOfStream      // server is done sending
	TypeNack             // receiver requests retransmission of lost packets
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeData:
		return "DATA"
	case TypeReport:
		return "REPORT"
	case TypeRepair:
		return "REPAIR"
	case TypeBufferState:
		return "BUFFERSTATE"
	case TypeEndOfStream:
		return "EOS"
	case TypeNack:
		return "NACK"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// StreamID distinguishes the tracks of a clip.
type StreamID uint8

const (
	StreamAudio StreamID = 0
	StreamVideo StreamID = 1
)

// Data flags.
const (
	FlagKeyframe uint8 = 1 << iota
	FlagLast           // last packet of the clip
)

// Data is a media payload packet. Large frames are split across fragments
// FragIndex in [0, FragCount) sharing the same FrameIndex; a frame is
// playable only when every fragment (or an FEC reconstruction) is present.
type Data struct {
	Stream    StreamID
	Seq       uint32 // per-stream sequence number
	MediaTime uint32 // media timestamp, milliseconds from clip start
	Flags     uint8
	// EncRate is the encoding (SureStream stream) the packet belongs to, in
	// Kbps; receivers use it to detect mid-playout switches.
	EncRate uint16
	// FrameIndex identifies the media frame this fragment belongs to.
	FrameIndex uint32
	// FragIndex / FragCount describe the fragment's position. FragCount is
	// at least 1.
	FragIndex, FragCount uint8
	// Payload carries the fragment bytes. In simulation runs Payload is nil
	// and PadLen gives the logical length instead, avoiding megabytes of
	// synthetic allocation; Encode emits PadLen zero bytes in that case.
	Payload []byte
	PadLen  int
}

// PayloadLen returns the logical payload length regardless of
// representation.
func (d *Data) PayloadLen() int {
	if d.Payload != nil {
		return len(d.Payload)
	}
	return d.PadLen
}

// Report is the receiver's feedback packet, sent about once per second. The
// server's rate controller and SureStream selector consume it. Expected and
// Lost cover the interval since the previous report, so the controller sees
// current conditions rather than session history.
type Report struct {
	Expected uint32 // video packets expected this interval
	Lost     uint32 // video packets lost this interval (post-repair)
	RateKbps uint16 // receiver-measured arrival rate
	JitterMs uint16 // receiver-measured interarrival jitter
	BufferMs uint16 // playout buffer depth
	RTTMs    uint16 // last measured round-trip estimate, 0 if unknown
}

// RepairMeta is one group member's header fields. Real XOR parity covers
// the whole packet — header included — so reconstructing the single missing
// packet recovers its header exactly; carrying the group's headers in the
// repair packet is the information-equivalent form the simulator can use
// without real payload bytes.
type RepairMeta struct {
	Seq        uint32
	FrameIndex uint32
	MediaTime  uint32
	FragIndex  uint8
	FragCount  uint8
	Flags      uint8
	EncRate    uint16
	Size       uint16
}

// MetaOf returns d's header as a repair group records it. It is never the
// zero RepairMeta: a sent Data has FragCount ≥ 1.
func MetaOf(d *Data) RepairMeta {
	return RepairMeta{
		Seq:        d.Seq,
		FrameIndex: d.FrameIndex,
		MediaTime:  d.MediaTime,
		FragIndex:  d.FragIndex,
		FragCount:  d.FragCount,
		Flags:      d.Flags,
		EncRate:    d.EncRate,
		Size:       uint16(d.PayloadLen()),
	}
}

// Fill writes the packet m describes into d, a fragment of stream whose
// payload is Size padding bytes: the inverse of MetaOf.
func (m RepairMeta) Fill(d *Data, stream StreamID) {
	d.Stream = stream
	d.Seq = m.Seq
	d.MediaTime = m.MediaTime
	d.Flags = m.Flags
	d.EncRate = m.EncRate
	d.FrameIndex = m.FrameIndex
	d.FragIndex = m.FragIndex
	d.FragCount = m.FragCount
	d.PadLen = int(m.Size)
}

// Repair is an XOR parity packet covering the Group data packets
// [BaseSeq, BaseSeq+Group) on Stream. A receiver missing exactly one packet
// of the group can reconstruct it.
type Repair struct {
	Stream  StreamID
	BaseSeq uint32
	Group   uint8
	Meta    []RepairMeta // one entry per group member, in seq order
	Parity  []byte       // XOR of the group's payloads, padded to the longest
	// PadLen mirrors Data.PadLen: in simulation the parity is PadLen zero
	// bytes instead of a real slice.
	PadLen int

	cell *repairCell // the arena cell Meta is backed by; nil outside an arena
}

// MetaFor returns the group member metadata for seq, if covered.
func (r *Repair) MetaFor(seq uint32) (RepairMeta, bool) {
	for _, m := range r.Meta {
		if m.Seq == seq {
			return m, true
		}
	}
	return RepairMeta{}, false
}

// ParityLen returns the logical parity length regardless of representation.
func (r *Repair) ParityLen() int {
	if r.Parity != nil {
		return len(r.Parity)
	}
	return r.PadLen
}

// BufferState tells the server how full the client's playout buffer is, so
// the server can burst during initial buffering and back off when full.
type BufferState struct {
	Ms     uint32 // milliseconds of media buffered
	Target uint32 // client's configured target
}

// EndOfStream marks clip completion.
type EndOfStream struct {
	FinalSeq uint32
}

// MaxNackSeqs bounds one NACK's request list.
const MaxNackSeqs = 64

// Nack requests retransmission of specific lost packets — RDT's NAK-based
// loss recovery, the mechanism that let RealVideo-over-UDP survive the
// burst losses FEC cannot repair.
type Nack struct {
	Stream StreamID
	Seqs   []uint32

	cell *nackCell // the arena cell Seqs is backed by; nil outside an arena
}

// Packet is the decoded union. Exactly one pointer field is non-nil,
// matching Kind.
type Packet struct {
	Kind        Type
	Data        *Data
	Report      *Report
	Repair      *Repair
	BufferState *BufferState
	EOS         *EndOfStream
	Nack        *Nack

	// Where the packet goes when its last reader releases it (transit.go):
	// home is the arena an original was leased from, transit the pooled
	// shard-transit snapshot a copy is the head of. Both are nil on a packet
	// that is neither (decoded from a socket, restored from a snapshot), and
	// releasing that one is a no-op.
	home    *Arena
	transit *transitPacket
}

// Errors returned by Decode.
var (
	ErrBadMagic    = errors.New("rdt: bad magic byte")
	ErrBadVersion  = errors.New("rdt: unsupported version")
	ErrBadChecksum = errors.New("rdt: checksum mismatch")
	ErrBadType     = errors.New("rdt: unknown packet type")
	ErrTruncated   = errors.New("rdt: truncated packet")
	ErrTooLarge    = errors.New("rdt: payload exceeds MaxPayload")
)

// Encode serializes p to wire format. Layout:
//
//	magic(1) version(1) type(1) reserved(1) checksum(2) body...
//
// The checksum covers the body with the checksum field itself zeroed.
func Encode(p *Packet) ([]byte, error) {
	w := packet.NewWriter(64)
	if err := EncodeTo(w, p); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// EncodeTo appends p's wire encoding to w, allocating nothing beyond buffer
// growth — the live-socket send path keeps one Writer per connection and
// Resets it between packets. On error the writer is rolled back to its
// length at entry.
func EncodeTo(w *packet.Writer, p *Packet) (err error) {
	base := w.Len()
	defer func() {
		if err != nil {
			w.Truncate(base)
		}
	}()
	w.U8(magic)
	w.U8(version)
	w.U8(uint8(p.Kind))
	w.U8(0)          // reserved
	w.U16(0)         // checksum placeholder
	start := w.Len() // body begins here

	switch p.Kind {
	case TypeData:
		d := p.Data
		if d == nil {
			return errors.New("rdt: TypeData with nil Data")
		}
		if d.PayloadLen() > MaxPayload {
			return ErrTooLarge
		}
		w.U8(uint8(d.Stream))
		w.U8(d.Flags)
		w.U16(d.EncRate)
		w.U32(d.Seq)
		w.U32(d.MediaTime)
		w.U32(d.FrameIndex)
		w.U8(d.FragIndex)
		fc := d.FragCount
		if fc == 0 {
			fc = 1
		}
		w.U8(fc)
		if d.Payload == nil && d.PadLen > 0 {
			w.Zeros16(d.PadLen)
		} else {
			w.Bytes16(d.Payload)
		}
	case TypeReport:
		r := p.Report
		if r == nil {
			return errors.New("rdt: TypeReport with nil Report")
		}
		w.U32(r.Expected)
		w.U32(r.Lost)
		w.U16(r.RateKbps)
		w.U16(r.JitterMs)
		w.U16(r.BufferMs)
		w.U16(r.RTTMs)
	case TypeRepair:
		r := p.Repair
		if r == nil {
			return errors.New("rdt: TypeRepair with nil Repair")
		}
		if r.ParityLen() > MaxPayload {
			return ErrTooLarge
		}
		if len(r.Meta) > 0xFF {
			return ErrTooLarge // the member count is one wire byte
		}
		w.U8(uint8(r.Stream))
		w.U8(r.Group)
		w.U32(r.BaseSeq)
		w.U8(uint8(len(r.Meta)))
		for _, m := range r.Meta {
			w.U32(m.Seq)
			w.U32(m.FrameIndex)
			w.U32(m.MediaTime)
			w.U8(m.FragIndex)
			w.U8(m.FragCount)
			w.U8(m.Flags)
			w.U16(m.EncRate)
			w.U16(m.Size)
		}
		if r.Parity == nil && r.PadLen > 0 {
			w.Zeros16(r.PadLen)
		} else {
			w.Bytes16(r.Parity)
		}
	case TypeBufferState:
		b := p.BufferState
		if b == nil {
			return errors.New("rdt: TypeBufferState with nil BufferState")
		}
		w.U32(b.Ms)
		w.U32(b.Target)
	case TypeEndOfStream:
		e := p.EOS
		if e == nil {
			return errors.New("rdt: TypeEndOfStream with nil EOS")
		}
		w.U32(e.FinalSeq)
	case TypeNack:
		nk := p.Nack
		if nk == nil {
			return errors.New("rdt: TypeNack with nil Nack")
		}
		if len(nk.Seqs) > MaxNackSeqs {
			return ErrTooLarge
		}
		w.U8(uint8(nk.Stream))
		w.U8(uint8(len(nk.Seqs)))
		for _, s := range nk.Seqs {
			w.U32(s)
		}
	default:
		return ErrBadType
	}

	out := w.Bytes()
	sum := packet.Checksum(out[start:])
	out[base+4] = byte(sum >> 8)
	out[base+5] = byte(sum)
	return nil
}

// Decode parses a wire packet produced by Encode.
func Decode(b []byte) (*Packet, error) {
	if len(b) < headerLen+2 {
		return nil, ErrTruncated
	}
	if b[0] != magic {
		return nil, ErrBadMagic
	}
	if b[1] != version {
		return nil, ErrBadVersion
	}
	kind := Type(b[2])
	sum := uint16(b[4])<<8 | uint16(b[5])
	body := b[headerLen+2:]
	if packet.Checksum(body) != sum {
		return nil, ErrBadChecksum
	}
	r := packet.NewReader(body)
	p := &Packet{Kind: kind}
	switch kind {
	case TypeData:
		d := &Data{}
		d.Stream = StreamID(r.U8())
		d.Flags = r.U8()
		d.EncRate = r.U16()
		d.Seq = r.U32()
		d.MediaTime = r.U32()
		d.FrameIndex = r.U32()
		d.FragIndex = r.U8()
		d.FragCount = r.U8()
		if d.FragCount == 0 {
			// Encode writes a floor of 1; normalizing here too keeps
			// decode->encode->decode a fixpoint (found by FuzzDecodePacket).
			d.FragCount = 1
		}
		d.Payload = append([]byte(nil), r.Bytes16()...)
		if len(d.Payload) > MaxPayload {
			return nil, ErrTooLarge
		}
		p.Data = d
	case TypeReport:
		rep := &Report{}
		rep.Expected = r.U32()
		rep.Lost = r.U32()
		rep.RateKbps = r.U16()
		rep.JitterMs = r.U16()
		rep.BufferMs = r.U16()
		rep.RTTMs = r.U16()
		p.Report = rep
	case TypeRepair:
		rp := &Repair{}
		rp.Stream = StreamID(r.U8())
		rp.Group = r.U8()
		rp.BaseSeq = r.U32()
		n := int(r.U8())
		for i := 0; i < n; i++ {
			var m RepairMeta
			m.Seq = r.U32()
			m.FrameIndex = r.U32()
			m.MediaTime = r.U32()
			m.FragIndex = r.U8()
			m.FragCount = r.U8()
			m.Flags = r.U8()
			m.EncRate = r.U16()
			m.Size = r.U16()
			rp.Meta = append(rp.Meta, m)
		}
		rp.Parity = append([]byte(nil), r.Bytes16()...)
		if len(rp.Parity) > MaxPayload {
			return nil, ErrTooLarge
		}
		p.Repair = rp
	case TypeBufferState:
		bs := &BufferState{}
		bs.Ms = r.U32()
		bs.Target = r.U32()
		p.BufferState = bs
	case TypeEndOfStream:
		e := &EndOfStream{}
		e.FinalSeq = r.U32()
		p.EOS = e
	case TypeNack:
		nk := &Nack{}
		nk.Stream = StreamID(r.U8())
		n := int(r.U8())
		if n > MaxNackSeqs {
			// Encode refuses oversized request lists; so does the decoder.
			return nil, ErrTooLarge
		}
		for i := 0; i < n; i++ {
			nk.Seqs = append(nk.Seqs, r.U32())
		}
		p.Nack = nk
	default:
		return nil, ErrBadType
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return p, nil
}

// WireSize returns the encoded size of p without allocating the encoding,
// used by the simulator to charge link capacity. It mirrors Encode exactly.
func WireSize(p *Packet) int {
	n := headerLen + 2
	switch p.Kind {
	case TypeData:
		n += 1 + 1 + 2 + 4 + 4 + 4 + 1 + 1 + 2 + p.Data.PayloadLen()
	case TypeReport:
		n += 4 + 4 + 2 + 2 + 2 + 2
	case TypeRepair:
		n += 1 + 1 + 4 + 1 + 19*len(p.Repair.Meta) + 2 + p.Repair.ParityLen()
	case TypeBufferState:
		n += 4 + 4
	case TypeEndOfStream:
		n += 4
	case TypeNack:
		n += 1 + 1 + 4*len(p.Nack.Seqs)
	}
	return n
}
