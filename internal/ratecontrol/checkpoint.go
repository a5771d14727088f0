package ratecontrol

import (
	"fmt"

	"realtracer/internal/snap"
)

// Controller type tags in the snapshot.
const (
	ctlAIMD         = 1
	ctlTFRC         = 2
	ctlUnresponsive = 3
)

// Sync walks a controller's full state for a world checkpoint, tagged by
// concrete type so decoding rebuilds the same controller mid-trajectory
// into *ctl.
func Sync(c *snap.Codec, ctl *Controller) {
	var tag uint8
	switch (*ctl).(type) {
	case *AIMD:
		tag = ctlAIMD
	case *TFRC:
		tag = ctlTFRC
	case *Unresponsive:
		tag = ctlUnresponsive
	}
	c.U8(&tag)
	if c.Reading() {
		switch tag {
		case ctlAIMD:
			*ctl = &AIMD{}
		case ctlTFRC:
			*ctl = &TFRC{}
		case ctlUnresponsive:
			*ctl = &Unresponsive{}
		default:
			*ctl = nil
		}
	}
	switch t := (*ctl).(type) {
	case *AIMD:
		t.lim.sync(c)
		c.F64(&t.rate)
		c.F64(&t.IncKbps)
		c.F64(&t.DecMult)
	case *TFRC:
		t.lim.sync(c)
		c.F64(&t.rate)
		c.Int(&t.PacketSize)
		c.F64(&t.lossEMA)
		c.F64(&t.rttEMA)
		c.Bool(&t.seen)
		c.Bool(&t.everLost)
		c.Int(&t.cleanStreak)
	case *Unresponsive:
		c.F64(&t.Kbps)
	default:
		c.Fail(fmt.Errorf("ratecontrol: cannot checkpoint controller type %T (tag %d)", *ctl, tag))
	}
}

func (l *Limits) sync(c *snap.Codec) {
	c.F64(&l.MinKbps)
	c.F64(&l.MaxKbps)
}
