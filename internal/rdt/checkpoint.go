package rdt

import (
	"fmt"

	"realtracer/internal/snap"
)

// Sync walks the packet field-exactly for a world checkpoint. The wire
// codec (Encode/Decode) is deliberately not reused: it materializes the
// simulation's Payload==nil/PadLen representation into real zero bytes, and
// a restored world must keep the allocation-free representation the
// straight-through run carries. Decoding allocates the body Kind selects.
func (p *Packet) Sync(c *snap.Codec) {
	c.Tag("rdt")
	snap.U8As(c, &p.Kind)
	if c.Err() != nil {
		return
	}
	switch p.Kind {
	case TypeData:
		if c.Reading() {
			p.Data = &Data{}
		}
		p.Data.Sync(c)
	case TypeReport:
		if c.Reading() {
			p.Report = &Report{}
		}
		p.Report.Sync(c)
	case TypeRepair:
		if c.Reading() {
			p.Repair = &Repair{}
		}
		r := p.Repair
		snap.U8As(c, &r.Stream)
		c.U32(&r.BaseSeq)
		c.U8(&r.Group)
		snap.Slice(c, &r.Meta, func(c *snap.Codec, m *RepairMeta) { m.Sync(c) })
		syncBody(c, &r.Parity, &r.PadLen)
	case TypeBufferState:
		if c.Reading() {
			p.BufferState = &BufferState{}
		}
		c.U32(&p.BufferState.Ms)
		c.U32(&p.BufferState.Target)
	case TypeEndOfStream:
		if c.Reading() {
			p.EOS = &EndOfStream{}
		}
		c.U32(&p.EOS.FinalSeq)
	case TypeNack:
		if c.Reading() {
			p.Nack = &Nack{}
		}
		snap.U8As(c, &p.Nack.Stream)
		snap.Slice(c, &p.Nack.Seqs, (*snap.Codec).U32)
	default:
		c.Fail(fmt.Errorf("rdt: checkpoint of unknown packet kind %d", p.Kind))
	}
}

// syncBody walks a payload that is either real bytes or — the simulation's
// allocation-free form, body == nil — only a length.
func syncBody(c *snap.Codec, body *[]byte, padLen *int) {
	carried := *body != nil
	c.Bool(&carried)
	if !carried {
		c.Int(padLen)
		return
	}
	c.Bytes(body)
	if *body == nil {
		*body = []byte{} // a carried empty body decodes as carried, not padded
	}
}

// Sync walks one media Data field-exactly, preserving the
// Payload-nil/PadLen distinction.
func (d *Data) Sync(c *snap.Codec) {
	snap.U8As(c, &d.Stream)
	c.U32(&d.Seq)
	c.U32(&d.MediaTime)
	c.U8(&d.Flags)
	snap.U64As(c, &d.EncRate)
	c.U32(&d.FrameIndex)
	c.U8(&d.FragIndex)
	c.U8(&d.FragCount)
	syncBody(c, &d.Payload, &d.PadLen)
}

// Sync walks one receiver Report.
func (r *Report) Sync(c *snap.Codec) {
	c.U32(&r.Expected)
	c.U32(&r.Lost)
	snap.U64As(c, &r.RateKbps)
	snap.U64As(c, &r.JitterMs)
	snap.U64As(c, &r.BufferMs)
	snap.U64As(c, &r.RTTMs)
}

// Sync walks one FEC group-member record.
func (m *RepairMeta) Sync(c *snap.Codec) {
	c.U32(&m.Seq)
	c.U32(&m.FrameIndex)
	c.U32(&m.MediaTime)
	c.U8(&m.FragIndex)
	c.U8(&m.FragCount)
	c.U8(&m.Flags)
	snap.U64As(c, &m.EncRate)
	snap.U64As(c, &m.Size)
}
