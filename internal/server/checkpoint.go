package server

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"realtracer/internal/media"
	"realtracer/internal/ratecontrol"
	"realtracer/internal/snap"
	"realtracer/internal/transport"
)

// Checkpoint/restore for the server engine. A server's serialized state is:
//
//   - the availability/diagnostic counters and the session ID cursor;
//   - every streaming session: transport conns, rate controller, frame
//     source cursor, pace/check timers as (At, seq) records, the
//     retransmit window's headers, where the open FEC group starts and
//     SureStream switching state.
//
// The conns the server accepted are not its to walk: the host's transport
// stack walks its accept tables first (transport.Stack.Sync) and hands each
// restored conn to acceptControl or acceptDataTCP, as the SYN did. A control
// conn between sessions or a data conn waiting for its DataHello is restored
// by that alone; a session names its open conns by reference.
//
// The availability RNG (cfg.Rand) is owned by whoever built the Config — in
// a study world that is the world itself, which persists the draw count in
// its own section and hands the restored Server an already-positioned Rand.
//
// Decoding overlays onto a freshly started server (Start must have run: the
// stack's walk hands conns to its listeners, and UDP conn views are rebuilt
// from the bound data port), building conns on the server host's stack.

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
// stack (decoding only), already walked; x carries the application-payload
// walk and indexes restored TCP conns so sessions' references and in-flight
// wire segments can resolve against them.
func (s *Server) Sync(c *snap.Codec, stack *transport.Stack, x *transport.SnapCtx) {
	c.Tag("server")
	c.U64(&s.describes)
	c.U64(&s.unavailable)
	c.U64(&s.played)
	c.U64(&s.tornDown)
	c.Int(&s.nextID)

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
			*sp = s.allocSession()
		}
		sess := *sp
		sess.sync(c, stack, x)
		if !c.Reading() || c.Err() != nil {
			return
		}
		s.sessions[sess.id] = sess
		if sess.spec.Protocol == "udp" && sess.spec.ClientDataAddr != "" {
			s.byDataAddr[sess.spec.ClientDataAddr] = sess
		}
	})
}

// sync walks one streaming session.
func (sess *streamSession) sync(c *snap.Codec, stack *transport.Stack, x *transport.SnapCtx) {
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

	// The control conn — a reference when open, a dead shell by value when
	// closed, which DropClient still matches on — and whether this session
	// is its most recent SETUP. A restored session gets a controlConn of its
	// own. Only the conn's most recent SETUP, the newest session on it, makes
	// its controlConn the conn's receiver: requests naming no session route
	// to it, and on a conn without one they find the receiver the accept
	// callback installed, with no session, as they did.
	var ctl transport.Conn
	latest := false
	if sess.cc != nil {
		ctl, latest = sess.cc.conn, sess.cc.sess == sess
	}
	transport.SyncOptConn(c, &ctl, stack, x)
	c.Bool(&latest)
	if c.Reading() && c.Err() == nil && ctl != nil {
		sess.cc = &controlConn{srv: s, conn: ctl}
		if latest {
			sess.cc.sess = sess
			ctl.SetReceiver(sess.cc.onMessage)
		}
	}

	transport.SyncOptConn(c, &sess.dataTCP, stack, x)
	if c.Reading() && c.Err() == nil && sess.dataTCP != nil {
		// bindTCPData minus maybeStart: the streaming position is overlaid
		// below, not restarted.
		sess.backlogProbe, _ = sess.dataTCP.(backlog)
		sess.dataTCP.SetReceiver(sess.recvTCP)
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
	s.cfg.Clock.SyncTimer(c, &sess.paceTimer, (*paceArm)(sess))
	s.cfg.Clock.SyncTimer(c, &sess.checkTimer, (*checkArm)(sess))

	c.U32(&sess.videoSeq)
	c.U32(&sess.audioSeq)
	c.F64(&sess.budget)
	c.U32(&sess.fecBase)
	sess.lastReport.Sync(c)
	c.Bool(&sess.haveReport)
	c.Int(&sess.healthyChecks)

	// The retransmit window walks as its headers in seq order, each with its
	// Seq rebuilt from the key; decoding takes the key back from the Seq.
	sess.sentVideo.Sync(c, "retransmit window", sess.id, func(c *snap.Codec, seq *uint64, e *sentMeta) {
		m := e.meta(uint32(*seq))
		m.Sync(c)
		*seq, *e = uint64(m.Seq), sentOf(m)
	})
	c.U32(&sess.sentFloor)
	if c.Reading() && c.Err() == nil {
		// A UDP session retains every video seq from the floor up, so the
		// window's size pins the floor; the open FEC group is read from the
		// window.
		udp := sess.spec.Protocol == "udp"
		if n := sess.sentVideo.Len(); (udp || n > 0) && sess.videoSeq-sess.sentFloor != uint32(n) {
			c.Fail(fmt.Errorf("server: restore: session %s retransmit window has %d headers for seqs [%d,%d)", sess.id, n, sess.sentFloor, sess.videoSeq))
			return
		}
		if udp && s.cfg.FEC && (sess.videoSeq-sess.fecBase >= fecGroup || sess.fecBase < sess.sentFloor) {
			c.Fail(fmt.Errorf("server: restore: session %s has an open FEC group [%d,%d) its retransmit window [%d,%d) cannot supply", sess.id, sess.fecBase, sess.videoSeq, sess.sentFloor, sess.videoSeq))
			return
		}
	}
	c.U32(&sess.videoFrameCtr)
	c.U32(&sess.audioFrameCtr)

	c.Bool(&sess.hasPending)
	if sess.hasPending {
		f := &sess.pending
		c.Bool(&f.Video)
		c.Dur(&f.MediaTime)
		c.Int(&f.Size)
		c.Bool(&f.Keyframe)
	}

	c.Dur(&sess.lastUpswitchAt)
	c.Dur(&sess.nextUpswitchOK)
	c.Dur(&sess.upswitchHold)
	c.Int(&sess.upswitchTo)
	snap.Map(c, &sess.failedRungs, (*snap.Codec).Int, (*snap.Codec).Int)

	if c.Reading() && sess.spec.Protocol == "udp" {
		sess.dataUDP = s.udpPort.ConnFor(sess.spec.ClientDataAddr)
	}
}
