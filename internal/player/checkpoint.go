package player

import (
	"fmt"

	"realtracer/internal/snap"
	"realtracer/internal/transport"
)

// The player's six timer handlers are converted-pointer types over Player
// itself; the player record walks each pending timer as (At, seq) beside
// its own fields, and decoding re-arms it with the same handler.

// Sync walks the complete mid-session player: the handshake state machine
// (plain-data pending kinds, and which dial it is waiting on — the dial
// itself is walked by the stack), both connections, the frame buffer and
// reassembly set, the FEC window and NACK ledger, every timer, and the
// accumulated Stats. The snapshot carries the Config scalars that were drawn
// from the owner's RNG at session start (URL, addresses, protocol, bandwidth
// cap, durations).
//
// Decoding rebuilds the session onto p, which must be fresh from New or
// Reset with the owner-supplied environment (Clock, Net, CPU, Rand,
// OnDone, DisableScalableVideo); the snapshot supplies the session-scoped
// Config scalars and all mutable state. Connections restore through the
// host's stack and register in x for segment references.
func (p *Player) Sync(c *snap.Codec, stack *transport.Stack, x *transport.SnapCtx) {
	cfg := p.cfg
	c.Tag("player")
	c.Str(&cfg.URL)
	c.Str(&cfg.ControlAddr)
	c.Str(&cfg.ServerUDPAddr)
	snap.U8As(c, &cfg.Protocol)
	c.F64(&cfg.MaxBandwidthKbps)
	c.Dur(&cfg.PlayFor)
	c.Dur(&cfg.Preroll)
	if c.Reading() {
		if c.Err() != nil {
			return
		}
		p.init(cfg)
	}

	transport.SyncOptConn(c, &p.ctl, stack, x)
	transport.SyncOptConn(c, &p.data, stack, x)
	if c.Reading() && c.Err() == nil {
		if p.ctl != nil {
			p.ctl.SetReceiver(p.recvControl)
		}
		if p.data != nil {
			p.data.SetReceiver(p.recvData)
		}
	}
	c.Bool(&p.dataIsMe)

	c.Str(&p.sessID)
	p.desc.Sync(c)
	c.Int(&p.cseq)
	snap.Map(c, &p.pending, (*snap.Codec).Int, (*snap.Codec).U8)

	c.Str(&p.state)
	c.Dur(&p.playStart)
	c.Dur(&p.mediaBase)
	c.Dur(&p.playPos)
	clk := p.cfg.Clock
	clk.SyncTimer(c, &p.endAt, (*timeUpArm)(p))
	clk.SyncTimer(c, &p.frameTimer, (*frameArm)(p))
	clk.SyncTimer(c, &p.graceTimer, (*underrunArm)(p))
	clk.SyncTimer(c, &p.idle, (*idleArm)(p))
	clk.SyncTimer(c, &p.reportTick, (*reportArm)(p))
	clk.SyncTimer(c, &p.nackTimer, (*nackArm)(p))
	c.U32(&p.epoch)
	// After the epoch: the re-attached continuation binds the restored one.
	c.U8(&p.dialing)
	c.Str(&p.dialAddr)
	if c.Reading() && c.Err() == nil && p.dialing != 0 {
		if p.dialing > dialData {
			c.Fail(fmt.Errorf("player: snapshot dial kind %d out of range", p.dialing))
		} else if err := stack.ReattachDial(p.dialAddr, p.dialDone(p.dialing)); err != nil {
			c.Fail(err)
		}
	}

	// The frame heap walks in raw array order: restoring the identical
	// slice reproduces the identical heap layout, hence identical pop order.
	snap.Slice(c, (*[]bufFrame)(&p.frames), func(c *snap.Codec, f *bufFrame) {
		c.Dur(&f.mediaTime)
		c.Dur(&f.arrived)
		c.Bool(&f.video)
		c.Bool(&f.keyframe)
		c.F64(&f.encRate)
		c.U32(&f.index)
		c.Int(&f.size)
	})
	snap.Slice(c, &p.partials, func(c *snap.Codec, pa *partial) {
		c.U64(&pa.key)
		c.Dur(&pa.mediaTime)
		c.Bool(&pa.video)
		c.Bool(&pa.keyframe)
		c.F64(&pa.encRate)
		c.U32(&pa.index)
		c.U8(&pa.count)
		snap.U32As(c, &pa.got)
		c.U8(&pa.need)
		c.Int(&pa.size)
	})

	c.U32(&p.nextVideoIdx)
	c.Bool(&p.videoIdxSeen)
	c.Bool(&p.chainBroken)
	c.Dur(&p.bufEnd)
	c.Bool(&p.eos)
	c.Dur(&p.firstRecvAt)
	c.Dur(&p.lastRecvAt)
	c.Int(&p.bytesRecv)

	// The FEC window is presence only, so it walks as its ascending seqs.
	c.U32(&p.highestSeq)
	p.haveSeq.Sync(c, "FEC window", cfg.URL, func(c *snap.Codec, seq *uint64, have *bool) {
		s := uint32(*seq)
		c.U32(&s)
		*seq, *have = uint64(s), true
	})
	c.U32(&p.seqFloor)
	snap.Slice(c, &p.lowSeqs, (*snap.Codec).U32)
	c.Int(&p.recvSeqCount)
	c.Int(&p.recovered)
	c.U32(&p.lastRepHighest)
	c.Int(&p.lastRepLost)
	// The ledger walks as the map it was: each seq, then its tries so far.
	p.nackOutstanding.Sync(c, "NACK ledger", cfg.URL, func(c *snap.Codec, seq *uint64, asked *int) {
		s, tries := uint32(*seq), *asked-1
		c.U32(&s)
		c.Int(&tries)
		*seq, *asked = uint64(s), max(tries+1, 0) // a negative count reads as no value, which Sync refuses
	})

	snap.Slice(c, &p.playTimes, (*snap.Codec).Dur)
	c.Int(&p.intBytes)
	c.Int(&p.lastTickFrames)
	c.Int(&p.decim)
	c.Int(&p.decimCount)
	c.F64(&p.curEncRate)
	c.Dur(&p.buffStart)
	c.Dur(&p.rebufStart)
	c.Bool(&p.doneCalled)
	c.Dur(&p.idleDeadline)

	p.stats.sync(c)
}

func (s *Stats) sync(c *snap.Codec) {
	c.Tag("pstat")
	c.Str(&s.URL)
	c.Str(&s.Server)
	snap.U8As(c, &s.Protocol)
	c.F64(&s.EncodedKbps)
	c.F64(&s.EncodedFPS)
	c.F64(&s.MeasuredKbps)
	c.F64(&s.MeasuredFPS)
	c.F64(&s.JitterMs)
	c.Int(&s.FramesPlayed)
	c.Int(&s.FramesDroppedLate)
	c.Int(&s.FramesDroppedCPU)
	c.Int(&s.FramesLost)
	c.Int(&s.FramesCorrupted)
	c.Int(&s.Rebuffers)
	c.Dur(&s.RebufferTime)
	c.Dur(&s.BufferingTime)
	c.F64(&s.CPUUtilization)
	c.Int(&s.Switches)
	c.Bool(&s.Unavailable)
	c.Bool(&s.Failed)
	c.Str(&s.FailReason)
	c.Dur(&s.PlayDuration)
	snap.Slice(c, &s.PlayoutGaps, (*snap.Codec).F64)
	snap.Slice(c, &s.Timeline, func(c *snap.Codec, tp *TimePoint) {
		c.Dur(&tp.T)
		c.F64(&tp.Kbps)
		c.F64(&tp.FPS)
	})
}
