package server

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"realtracer/internal/media"
	"realtracer/internal/ratecontrol"
	"realtracer/internal/rdt"
	"realtracer/internal/simclock"
	"realtracer/internal/snap"
	"realtracer/internal/transport"
	"realtracer/internal/vclock"
)

// Checkpoint/restore for the server engine. A server's serialized state is:
//
//   - the availability/diagnostic counters and the session ID cursor;
//   - every control connection (including between-session ones reachable
//     only through the ctlConns track list), each with the ID of the session
//     it most recently SETUP;
//   - data connections accepted but not yet bound by a DataHello;
//   - every streaming session: transport conns, rate controller, frame
//     source cursor, pace/check timers as (At, seq) records, retransmit
//     window, FEC accumulation and SureStream switching state.
//
// The availability RNG (cfg.Rand) is owned by whoever built the Config — in
// a study world that is the world itself, which persists the draw count in
// its own section and hands the restored Server an already-positioned Rand.
//
// Decoding overlays onto a freshly started server (Start must have run: the
// restore re-seeds the live listeners and rebuilds UDP conn views from the
// bound data port), building conns on the server host's stack.

func init() {
	simclock.RegisterEventKind("server.pace", (*paceArm)(nil))
	simclock.RegisterEventKind("server.check", (*checkArm)(nil))
}

// sessOrder extracts the numeric part of a "sess-N" ID so sessions serialize
// in creation order — the order that makes byDataAddr's latest-wins rebuild
// correct.
func sessOrder(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "sess-"))
	if err != nil {
		return -1
	}
	return n
}

// Sync walks the server's full state. stack is the server host's transport
// stack (decoding only); x carries the application-payload walk and indexes
// restored TCP conns so in-flight wire segments can resolve against them.
func (s *Server) Sync(c *snap.Codec, stack *transport.Stack, x *transport.SnapCtx) {
	c.Tag("server")
	c.U64(&s.describes)
	c.U64(&s.unavailable)
	c.U64(&s.played)
	c.U64(&s.tornDown)
	c.Int(&s.nextID)

	// Control connections: open ones, plus closed ones a session still
	// references (DropClient matches on the control conn's remote address, so
	// losing the link would change churn behavior after a resume). Each
	// carries the ID of the session it most recently SETUP, linked once the
	// sessions exist.
	var ccs []*controlConn
	if !c.Reading() {
		referenced := make(map[*controlConn]bool, len(s.sessions))
		for _, sess := range s.sessions {
			if sess.cc != nil {
				referenced[sess.cc] = true
			}
		}
		for _, cc := range s.ctlConns {
			if !transport.ConnClosed(cc.conn) || referenced[cc] {
				ccs = append(ccs, cc)
			}
		}
		sort.Slice(ccs, func(i, j int) bool { return ccs[i].conn.LocalAddr() < ccs[j].conn.LocalAddr() })
	}
	var ccSess []string
	snap.Slice(c, &ccs, func(c *snap.Codec, ccp **controlConn) {
		if c.Reading() {
			*ccp = &controlConn{srv: s}
		}
		cc := *ccp
		transport.SyncConn(c, &cc.conn, stack, x)
		id := ""
		if cc.sess != nil {
			id = cc.sess.id
		}
		c.Str(&id)
		if !c.Reading() || c.Err() != nil {
			return
		}
		ccSess = append(ccSess, id)
		s.ctlConns = append(s.ctlConns, cc)
		if !transport.ConnClosed(cc.conn) {
			cc.conn.SetReceiver(cc.onMessage)
			c.Fail(stack.RestoreAccepted(s.cfg.ControlPort, cc.conn))
		}
	})

	// Data connections still waiting for their hello.
	var pend []transport.Conn
	if !c.Reading() {
		for _, conn := range s.pendingData {
			if !transport.ConnClosed(conn) {
				pend = append(pend, conn)
			}
		}
		sort.Slice(pend, func(i, j int) bool { return pend[i].LocalAddr() < pend[j].LocalAddr() })
	}
	snap.Slice(c, &pend, func(c *snap.Codec, conn *transport.Conn) {
		transport.SyncConn(c, conn, stack, x)
		if c.Reading() && c.Err() == nil {
			s.watchPendingData(*conn)
			c.Fail(stack.RestoreAccepted(s.cfg.DataTCPPort, *conn))
		}
	})

	// Sessions walk in creation order, so on restore the latest SETUP for a
	// data address wins — the same overwrite order the live run produced.
	var sessions []*streamSession
	if !c.Reading() {
		for _, sess := range s.sessions {
			sessions = append(sessions, sess)
		}
		sort.Slice(sessions, func(i, j int) bool { return sessOrder(sessions[i].id) < sessOrder(sessions[j].id) })
	}
	snap.Slice(c, &sessions, func(c *snap.Codec, sp **streamSession) {
		if c.Reading() {
			*sp = &streamSession{srv: s, failedRungs: make(map[int]int)}
		}
		sess := *sp
		sess.sync(c, stack, x, ccs)
		if !c.Reading() || c.Err() != nil {
			return
		}
		s.sessions[sess.id] = sess
		if sess.spec.Protocol == "udp" && sess.spec.ClientDataAddr != "" {
			s.byDataAddr[sess.spec.ClientDataAddr] = sess
		}
	})
	if c.Reading() && c.Err() == nil {
		for i, cc := range ccs {
			if id := ccSess[i]; id != "" {
				cc.sess = s.sessions[id]
			}
		}
	}
}

// sync walks one streaming session; ccs is the control-connection walk
// order the session's link indexes into.
func (sess *streamSession) sync(c *snap.Codec, stack *transport.Stack, x *transport.SnapCtx, ccs []*controlConn) {
	s := sess.srv
	c.Tag("sess")
	c.Str(&sess.id)
	url := ""
	if sess.clip != nil {
		url = sess.clip.URL
	}
	c.Str(&url)
	if c.Reading() {
		if c.Err() != nil {
			return
		}
		if sess.clip = s.cfg.Library.Lookup(url); sess.clip == nil {
			c.Fail(fmt.Errorf("server: restore: unknown clip %q", url))
			return
		}
	}
	c.Str(&sess.spec.Protocol)
	c.Str(&sess.spec.ClientDataAddr)
	c.Str(&sess.spec.ServerDataAddr)
	c.F64(&sess.maxKbps)
	idx := slices.Index(ccs, sess.cc)
	c.Int(&idx)
	if c.Reading() && idx >= 0 && idx < len(ccs) {
		sess.cc = ccs[idx]
	}

	transport.SyncOptConn(c, &sess.dataTCP, stack, x)
	if c.Reading() && c.Err() == nil && sess.dataTCP != nil {
		// bindTCPData minus maybeStart: the streaming position is overlaid
		// below, not restarted.
		sess.backlogProbe, _ = sess.dataTCP.(interface{ QueueDepth() int })
		if !transport.ConnClosed(sess.dataTCP) {
			sess.dataTCP.SetReceiver(sess.onTCPData)
			c.Fail(stack.RestoreAccepted(s.cfg.DataTCPPort, sess.dataTCP))
		}
	}
	hasCtrl := sess.ctrl != nil
	c.Bool(&hasCtrl)
	if hasCtrl {
		ratecontrol.Sync(c, &sess.ctrl)
	}

	c.Int(&sess.encIdx)
	if c.Reading() && c.Err() == nil && (sess.encIdx < 0 || sess.encIdx >= len(sess.clip.Encodings)) {
		c.Fail(fmt.Errorf("server: restore: session %s streams encoding %d of %d", sess.id, sess.encIdx, len(sess.clip.Encodings)))
		return
	}
	c.Bool(&sess.playing)
	c.Bool(&sess.stopped)
	c.Dur(&sess.startAt)
	c.Dur(&sess.mediaPos)
	streaming := sess.src != nil
	c.Bool(&streaming)
	if streaming {
		if c.Reading() {
			sess.srcStore = &media.FrameSource{}
			sess.srcStore.Reset(sess.clip, sess.clip.Encodings[sess.encIdx])
			sess.src = sess.srcStore
		}
		sess.src.Sync(c)
	}
	vclock.SyncHandle(c, s.cfg.Clock, &sess.paceTimer, (*paceArm)(sess))
	vclock.SyncHandle(c, s.cfg.Clock, &sess.checkTimer, (*checkArm)(sess))

	c.U32(&sess.videoSeq)
	c.U32(&sess.audioSeq)
	c.F64(&sess.budget)
	snap.Slice(c, &sess.fecMeta, func(c *snap.Codec, m *rdt.RepairMeta) { m.Sync(c) })
	c.U32(&sess.fecBase)
	sess.lastReport.Sync(c)
	c.Bool(&sess.haveReport)
	c.Int(&sess.healthyChecks)

	// The retransmit window walks as its packets in seq order; the key of
	// each is its own Seq. A restored packet's one holder is the window.
	sess.sentVideo.Sync(c, "retransmit window", sess.id, func(c *snap.Codec, seq *uint64, d **rdt.Data) {
		if c.Reading() {
			*d = sess.arena.NewData()
		}
		(*d).Sync(c)
		*seq = uint64((*d).Seq)
	})
	c.U32(&sess.sentFloor)
	if c.Reading() && c.Err() == nil {
		// Every video seq from the floor up is retained, so the window's
		// size pins the floor.
		if n := sess.sentVideo.Len(); n > 0 && sess.videoSeq-sess.sentFloor != uint32(n) {
			c.Fail(fmt.Errorf("server: restore: session %s retransmit window holds %d packets for seqs [%d,%d)", sess.id, n, sess.sentFloor, sess.videoSeq))
			return
		}
	}
	c.U32(&sess.videoFrameCtr)
	c.U32(&sess.audioFrameCtr)

	c.Bool(&sess.hasPending)
	if sess.hasPending {
		f := &sess.pending
		c.Bool(&f.Video)
		c.Int(&f.Index)
		c.Dur(&f.MediaTime)
		c.Int(&f.Size)
		c.Bool(&f.Keyframe)
	}

	c.Dur(&sess.lastUpswitchAt)
	c.Dur(&sess.nextUpswitchOK)
	c.Dur(&sess.upswitchHold)
	c.Int(&sess.upswitchTo)
	snap.Map(c, &sess.failedRungs, (*snap.Codec).Int, (*snap.Codec).Int)
	c.Int(&sess.switches)

	if c.Reading() && sess.spec.Protocol == "udp" {
		sess.dataUDP = s.udpPort.ConnFor(sess.spec.ClientDataAddr)
	}
}
