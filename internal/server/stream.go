package server

import (
	"time"

	"realtracer/internal/media"
	"realtracer/internal/ratecontrol"
	"realtracer/internal/rdt"
	"realtracer/internal/rtsp"
	"realtracer/internal/seqwin"
	"realtracer/internal/simclock"
	"realtracer/internal/transport"
)

// Pacing and switching parameters.
const (
	paceQuantum = 100 * time.Millisecond
	switchCheck = time.Second
	// maxFragment keeps every data packet under the transport MSS.
	maxFragment = 1200
	// fecGroup is the repair-group size for UDP FEC.
	fecGroup = 8
	// tcpBacklogHigh/Low drive SureStream switching on TCP sessions, in
	// queued messages at the transport sender.
	tcpBacklogHigh = 40
	tcpBacklogLow  = 4
	// upswitchPatience is how many consecutive healthy checks precede an
	// upswitch.
	upswitchPatience = 4
	// liveCaptureBuffer is all the lead a live feed has over realtime: the
	// encoder's own buffering.
	liveCaptureBuffer = 500 * time.Millisecond
	// bufferAhead is how much media the server tries to keep buffered ahead
	// of the client's playout (drives the initial burst).
	bufferAhead = 12 * time.Second
)

// streamSession is the server side of one clip playout.
type streamSession struct {
	srv  *Server
	id   string
	clip *media.Clip
	spec rtsp.TransportSpec
	cc   *controlConn

	maxKbps float64 // client's configured maximum bit rate
	ctrl    ratecontrol.Controller
	dataTCP transport.Conn
	// recvTCP is onTCPData, bound once when the session object is built and
	// kept across recycling: the receiver of every data conn it binds.
	recvTCP func(any, int)
	dataUDP transport.Conn // port-backed view for UDP sends, peer resolved once
	// backlogProbe is dataTCP's QueueDepth view, resolved once at bind time:
	// pace() consults it per frame, and an interface type assertion in that
	// loop showed up in the campaign CPU profile.
	backlogProbe interface{ QueueDepth() int }

	src *media.FrameSource
	// srcStore is the pooled frame-source object behind src: src doubles
	// as the "streaming started" sentinel (nil until PLAY), so the
	// reusable storage lives in its own field and survives recycling.
	srcStore *media.FrameSource
	encIdx   int
	playing  bool
	stopped  bool
	startAt  time.Duration // virtual time of PLAY
	mediaPos time.Duration // media time sent so far

	paceTimer  simclock.Timer
	checkTimer simclock.Timer

	videoSeq uint32
	audioSeq uint32

	// UDP pacing budget (bytes), replenished at the controller rate.
	budget float64

	// fecBase opens the FEC group being sent: its members are the video
	// packets [fecBase, videoSeq), whose headers the retransmit window records.
	fecBase uint32

	// Feedback snapshots. The report is kept by value: the *rdt.Report the
	// feedback callback sees lives in pooled storage (a cell of the
	// player's arena on the classic path, a shard-transit snapshot on the
	// sharded one) that is released as soon as the callback returns, so
	// retaining the pointer until the next check tick would read reused
	// memory.
	lastReport    rdt.Report
	haveReport    bool
	healthyChecks int

	// sentVideo records the header of every recently sent video packet, for
	// NACK retransmission and FEC parity (UDP only): exactly the seqs
	// [sentFloor, videoSeq), since video seqs are handed out monotonically
	// and expire from the bottom.
	sentVideo seqwin.Window[sentMeta]
	sentFloor uint32

	// Per-stream frame counters: the player relies on video FrameIndex
	// continuity to detect decode-chain damage (GOP corruption).
	videoFrameCtr uint32
	audioFrameCtr uint32

	// pending holds a frame drawn from the source that exceeded the UDP
	// rate budget; it is sent first on the next quantum. Stored by value so
	// stashing a frame does not allocate.
	pending    media.Frame
	hasPending bool

	// Upswitch backoff: a stream that steps up and promptly suffers loss
	// waits exponentially longer before the next attempt, so a saturated
	// link is not re-probed into corruption every few seconds.
	lastUpswitchAt time.Duration
	nextUpswitchOK time.Duration
	upswitchHold   time.Duration
	// upswitchTo remembers the rung of the last upswitch; rungs that fail
	// twice are abandoned for the rest of the session.
	upswitchTo  int
	failedRungs map[int]int
}

// allocSession builds a session object for the pool: its map, and its
// receiver bound to it.
func (s *Server) allocSession() *streamSession {
	sess := &streamSession{srv: s, failedRungs: make(map[int]int)}
	sess.recvTCP = sess.onTCPData
	return sess
}

// newStreamSession leases a session object from the server's free-list (or
// allocates the pool's first instances) and reinitializes it for one clip
// playout. Recycled sessions keep their storage — the emptied retransmit
// window's ring, the failed-rung map and bound receiver;
// everything else is reset field-by-field through the struct
// literal, so a recycled session can never observe its predecessor's
// retransmit window, feedback snapshot or timer state.
func newStreamSession(s *Server, id string, clip *media.Clip, spec rtsp.TransportSpec, maxKbps float64, cc *controlConn) *streamSession {
	var sess *streamSession
	if k := len(s.sessFree); k > 0 {
		sess = s.sessFree[k-1]
		s.sessFree = s.sessFree[:k-1]
		clear(sess.failedRungs)
	} else {
		sess = s.allocSession()
	}
	*sess = streamSession{
		srv:         s,
		id:          id,
		clip:        clip,
		spec:        spec,
		cc:          cc,
		maxKbps:     maxKbps,
		recvTCP:     sess.recvTCP,
		sentVideo:   sess.sentVideo,
		failedRungs: sess.failedRungs,
		srcStore:    sess.srcStore,
	}
	sess.encIdx = clip.EncodingIndexFor(maxKbps)
	if spec.Protocol == "udp" {
		// Pace from the client's stated connection speed, not the encoding:
		// a broadband-only clip served to a modem must still start at modem
		// rate or the first seconds are pure queue overflow.
		start := clip.Encodings[sess.encIdx].TotalKbps
		if maxKbps < start {
			start = maxKbps
		}
		sess.ctrl = s.cfg.NewController(start)
		sess.dataUDP = s.udpPort.ConnFor(spec.ClientDataAddr)
		// The window spans sentWindow+1 seqs just before each cut: a ring of
		// twice sentWindow slots, made in one step on a session's first UDP
		// playout and kept by the pool.
		sess.sentVideo.Reserve(2 * sentWindow)
	}
	return sess
}

// paceArm and checkArm give the session's two recurring timers distinct
// EventHandler identities without boxing allocations: a converted pointer
// to the session itself is the handler.
type paceArm streamSession

func (x *paceArm) Fire(time.Duration) { (*streamSession)(x).pace() }

type checkArm streamSession

func (x *checkArm) Fire(time.Duration) { (*streamSession)(x).check() }

func (sess *streamSession) bindTCPData(conn transport.Conn) {
	sess.dataTCP = conn
	sess.backlogProbe, _ = conn.(interface{ QueueDepth() int })
	conn.SetReceiver(sess.recvTCP)
	sess.maybeStart()
}

// onTCPData receives the client's feedback on the TCP data connection.
func (sess *streamSession) onTCPData(payload any, _ int) {
	if pkt, ok := payload.(*rdt.Packet); ok {
		sess.onFeedback(pkt)
	}
}

func (sess *streamSession) play() {
	sess.playing = true
	sess.maybeStart()
}

// maybeStart begins streaming once both PLAY has arrived and the data
// channel exists.
func (sess *streamSession) maybeStart() {
	if !sess.playing || sess.stopped || sess.src != nil {
		return
	}
	if sess.spec.Protocol == "tcp" && sess.dataTCP == nil {
		return
	}
	enc := sess.clip.Encodings[sess.encIdx]
	if sess.srcStore == nil {
		sess.srcStore = &media.FrameSource{}
	}
	sess.srcStore.Reset(sess.clip, enc)
	sess.src = sess.srcStore
	sess.startAt = sess.srv.cfg.Clock.Now()
	sess.budget = 4096 // small initial allowance
	sess.schedulePace()
	sess.scheduleCheck()
}

func (sess *streamSession) pause() {
	sess.playing = false
	sess.paceTimer.Cancel()
}

func (sess *streamSession) stop() {
	sess.stopped = true
	sess.playing = false
	sess.paceTimer.Cancel()
	sess.checkTimer.Cancel()
	if sess.dataTCP != nil {
		sess.dataTCP.Close()
	}
}

func (sess *streamSession) schedulePace() {
	if sess.stopped || !sess.playing {
		return
	}
	sess.paceTimer = sess.srv.cfg.Clock.AfterHandler(paceQuantum, (*paceArm)(sess))
}

func (sess *streamSession) scheduleCheck() {
	if sess.stopped {
		return
	}
	sess.checkTimer = sess.srv.cfg.Clock.AfterHandler(switchCheck, (*checkArm)(sess))
}

// pace sends due frames, respecting the ahead window and (for UDP) the rate
// controller's byte budget.
func (sess *streamSession) pace() {
	if sess.stopped || !sess.playing || sess.src == nil {
		return
	}
	now := sess.srv.cfg.Clock.Now()
	elapsed := now - sess.startAt

	if sess.spec.Protocol == "udp" && sess.ctrl != nil {
		// The controller can probe above the client's stated connection
		// speed; never pace past it (plus a catch-up margin) — blasting a
		// DSL line at 1.25x its ceiling just manufactures queue loss.
		rate := sess.ctrl.RateKbps()
		if ceiling := sess.maxKbps * 1.15; rate > ceiling {
			rate = ceiling
		}
		sess.budget += rate * 1000 / 8 * paceQuantum.Seconds()
		const maxBudget = 64 * 1024
		if sess.budget > maxBudget {
			sess.budget = maxBudget
		}
	}

	// The ahead window ramps: a short initial allowance that grows toward
	// bufferAhead, so the startup burst is roughly 2x the media rate rather
	// than an unbounded dump that masquerades as congestion. Live content
	// cannot be sent ahead of capture at all: only a small encoder buffer
	// separates the camera from the wire.
	ahead := min(3*time.Second+elapsed, bufferAhead)
	if sess.clip.Live {
		ahead = liveCaptureBuffer
	}
	for {
		if sess.mediaPos > elapsed+ahead {
			break // far enough ahead of the client
		}
		if sess.spec.Protocol == "tcp" && sess.backlogProbe != nil {
			if sess.backlogProbe.QueueDepth() > tcpBacklogHigh {
				break // transport saturated; try again next quantum
			}
		}
		var frame media.Frame
		if sess.hasPending {
			frame = sess.pending
		} else {
			f, ok := sess.src.Next()
			if !ok {
				sess.sendEOS()
				return
			}
			frame = f
		}
		if sess.spec.Protocol == "udp" {
			if sess.budget < float64(frame.Size) {
				// Out of rate budget; stash the frame for the next quantum.
				sess.pending = frame
				sess.hasPending = true
				break
			}
			sess.budget -= float64(frame.Size)
		}
		sess.hasPending = false
		sess.sendFrame(frame)
		sess.mediaPos = frame.MediaTime
	}
	sess.schedulePace()
}

func (sess *streamSession) sendFrame(f media.Frame) {
	enc := sess.src.Encoding()
	stream := rdt.StreamAudio
	var frameIdx uint32
	if f.Video {
		stream = rdt.StreamVideo
		frameIdx = sess.videoFrameCtr
		sess.videoFrameCtr++
	} else {
		frameIdx = sess.audioFrameCtr
		sess.audioFrameCtr++
	}
	frags := media.Ceil(f.Size, maxFragment)
	if frags < 1 {
		frags = 1
	}
	remaining := f.Size
	for i := 0; i < frags; i++ {
		sz := remaining
		if sz > maxFragment {
			sz = maxFragment
		}
		remaining -= sz
		pkt := sess.srv.cfg.Arena.Data()
		d := pkt.Data
		d.Stream = stream
		d.MediaTime = uint32(f.MediaTime.Milliseconds())
		d.EncRate = uint16(enc.TotalKbps)
		d.FrameIndex = frameIdx
		d.FragIndex = uint8(i)
		d.FragCount = uint8(frags)
		d.PadLen = sz
		if f.Keyframe {
			d.Flags |= rdt.FlagKeyframe
		}
		if f.Video {
			d.Seq = sess.videoSeq
			sess.videoSeq++
		} else {
			d.Seq = sess.audioSeq
			sess.audioSeq++
		}
		// The window copies the header before the send: a packet dropped at
		// the uplink is released inside Send.
		retain := f.Video && sess.spec.Protocol == "udp"
		if retain {
			sess.rememberVideo(rdt.MetaOf(d))
		}
		sess.sendData(pkt)
		if retain && sess.srv.cfg.FEC {
			sess.sendFEC()
		}
	}
}

// sendFEC closes the open FEC group once it has fecGroup members, sending a
// parity packet that carries their headers as the window recorded them.
func (sess *streamSession) sendFEC() {
	if sess.videoSeq-sess.fecBase < fecGroup {
		return
	}
	pkt := sess.srv.cfg.Arena.Repair()
	rep := pkt.Repair
	rep.Stream = rdt.StreamVideo
	rep.BaseSeq = sess.fecBase
	rep.Group = fecGroup
	for seq := sess.fecBase; seq != sess.videoSeq; seq++ {
		m := sess.sentVideo.Get(uint64(seq)).meta(seq)
		rep.Meta = append(rep.Meta, m)
		rep.PadLen = max(rep.PadLen, int(m.Size))
	}
	sess.fecBase = sess.videoSeq
	sess.sendData(pkt)
}

func (sess *streamSession) sendData(pkt *rdt.Packet) {
	size := rdt.WireSize(pkt)
	if sess.spec.Protocol == "udp" {
		sess.dataUDP.Send(pkt, size)
		return
	}
	if sess.dataTCP != nil {
		sess.dataTCP.Send(pkt, size)
	}
}

func (sess *streamSession) sendEOS() {
	pkt := sess.srv.cfg.Arena.EOS()
	pkt.EOS.FinalSeq = sess.videoSeq
	sess.sendData(pkt)
	sess.playing = false
}

// check runs once a second: folds feedback into the rate controller and
// evaluates SureStream switching.
func (sess *streamSession) check() {
	if sess.stopped {
		return
	}
	defer sess.scheduleCheck()
	if sess.src == nil {
		return
	}

	switch sess.spec.Protocol {
	case "udp":
		sess.checkUDP()
	case "tcp":
		sess.checkTCP()
	}
}

func (sess *streamSession) checkUDP() {
	if sess.ctrl == nil {
		return
	}
	if sess.haveReport {
		r := sess.lastReport
		sess.haveReport = false
		var lossFrac float64
		// The report carries this interval's expectation and loss.
		if r.Expected > 0 {
			lossFrac = float64(r.Lost) / float64(r.Expected)
			if lossFrac > 1 {
				lossFrac = 1
			}
		}
		// Loss soon after an upswitch means the new rung does not fit:
		// back off before trying again (exponentially, capped at a minute).
		now := sess.srv.cfg.Clock.Now()
		if lossFrac > 0 && sess.lastUpswitchAt > 0 && now-sess.lastUpswitchAt < 6*time.Second {
			if sess.upswitchHold < 8*time.Second {
				sess.upswitchHold = 8 * time.Second
			} else {
				sess.upswitchHold *= 2
				if sess.upswitchHold > time.Minute {
					sess.upswitchHold = time.Minute
				}
			}
			sess.nextUpswitchOK = now + sess.upswitchHold
			sess.failedRungs[sess.upswitchTo]++
			sess.lastUpswitchAt = 0
		}
		// Application-limited intervals (the client buffer is full, or the
		// current encoding needs less than the allowed rate) say nothing
		// about the path; their low receive rates would crash the
		// controller spuriously. Instead, probe optimistically: raise the
		// rate on faith so a higher encoding can be tried — if the path
		// cannot carry it, the resulting loss corrects course.
		elapsed := sess.srv.cfg.Clock.Now() - sess.startAt
		bufferFull := sess.mediaPos > elapsed+bufferAhead-time.Second
		encLimited := sess.ctrl.RateKbps() > 1.2*sess.clip.Encodings[sess.encIdx].TotalKbps
		switch {
		case lossFrac > 0 || (!bufferFull && !encLimited):
			sess.ctrl.OnFeedback(ratecontrol.Feedback{
				LossFraction: lossFrac,
				RTT:          time.Duration(r.RTTMs) * time.Millisecond,
				RecvRateKbps: float64(r.RateKbps),
			})
		default:
			sess.ctrl.OnFeedback(ratecontrol.Feedback{
				LossFraction: 0,
				RTT:          time.Duration(r.RTTMs) * time.Millisecond,
				RecvRateKbps: sess.ctrl.RateKbps() * 1.2,
			})
		}
	}
	if !sess.srv.cfg.SureStream {
		return
	}
	// Require margin over the target rung: packet-header and FEC overhead
	// run 10-20 % on small packets, and switching up without headroom just
	// oscillates through loss bursts.
	rate := sess.ctrl.RateKbps()
	desired := sess.clip.EncodingIndexFor(minF(rate*0.75, sess.maxKbps))
	sess.applySwitch(desired)
}

func (sess *streamSession) checkTCP() {
	if !sess.srv.cfg.SureStream || sess.dataTCP == nil {
		return
	}
	if sess.backlogProbe == nil {
		return // real sockets: no backlog signal, no switching
	}
	depth := sess.backlogProbe.QueueDepth()
	// "ahead" is how much media the transport has absorbed beyond realtime.
	// A backlog while comfortably ahead is just the startup burst draining;
	// a backlog while behind means TCP cannot sustain the encoding.
	elapsed := sess.srv.cfg.Clock.Now() - sess.startAt
	behind := sess.mediaPos < elapsed+2*time.Second
	switch {
	case depth > tcpBacklogHigh/2 && behind:
		if sess.encIdx > 0 {
			sess.applySwitch(sess.encIdx - 1)
		}
	case depth < tcpBacklogLow:
		// applySwitch gates upswitches on sustained health.
		sess.applySwitch(sess.clip.EncodingIndexFor(sess.maxKbps))
	default:
		sess.healthyChecks = 0
	}
}

// applySwitch moves to encoding index idx with down-fast/up-slow hysteresis
// already applied by the callers.
func (sess *streamSession) applySwitch(idx int) {
	if idx == sess.encIdx || idx < 0 || idx >= len(sess.clip.Encodings) {
		return
	}
	// Upswitches wait for sustained health, and back off after failures.
	now := sess.srv.cfg.Clock.Now()
	if idx > sess.encIdx {
		if now < sess.nextUpswitchOK {
			return
		}
		if sess.failedRungs[sess.encIdx+1] >= 2 {
			return // this rung has proven itself unsustainable
		}
		sess.healthyChecks++
		if sess.healthyChecks < upswitchPatience {
			return
		}
		idx = sess.encIdx + 1 // one rung at a time
		sess.healthyChecks = 0
		sess.lastUpswitchAt = now
		sess.upswitchTo = idx
	} else {
		sess.healthyChecks = 0
	}
	sess.encIdx = idx
	enc := sess.clip.Encodings[idx]
	sess.src.ResetAt(sess.clip, enc, sess.mediaPos)
	sess.hasPending = false
}

func (sess *streamSession) onFeedback(pkt *rdt.Packet) {
	switch pkt.Kind {
	case rdt.TypeReport:
		sess.lastReport = *pkt.Report
		sess.haveReport = true
	case rdt.TypeBufferState:
		// Reserved for future pacing refinements; the ahead-window pacing
		// already bounds client buffer growth.
	case rdt.TypeNack:
		sess.retransmit(pkt.Nack)
	}
}

// sentMeta is a sent video packet's header as the retransmit window keeps
// it: an rdt.RepairMeta without its Seq, which is the window's key, so a slot
// is 16 bytes, not 20. FragCount ≥ 1 keeps every entry non-zero, and the
// zero sentMeta still means absent.
type sentMeta struct {
	frameIndex, mediaTime       uint32
	fragIndex, fragCount, flags uint8
	encRate, size               uint16
}

func sentOf(m rdt.RepairMeta) sentMeta {
	return sentMeta{m.FrameIndex, m.MediaTime, m.FragIndex, m.FragCount, m.Flags, m.EncRate, m.Size}
}

// meta is the header of the packet e records, sent as seq.
func (e sentMeta) meta(seq uint32) rdt.RepairMeta {
	return rdt.RepairMeta{
		Seq:        seq,
		FrameIndex: e.frameIndex,
		MediaTime:  e.mediaTime,
		FragIndex:  e.fragIndex,
		FragCount:  e.fragCount,
		Flags:      e.flags,
		EncRate:    e.encRate,
		Size:       e.size,
	}
}

// sentWindow is how many recent video headers a UDP session keeps for
// retransmission and parity.
const sentWindow = 512

// rememberVideo records a sent video packet's header for retransmission and
// parity, bounded to the recent window: once more than sentWindow headers are
// held, everything below m.Seq-sentWindow goes and sentFloor follows the cut.
func (sess *streamSession) rememberVideo(m rdt.RepairMeta) {
	sess.sentVideo.Put(uint64(m.Seq), sentOf(m))
	if cut := m.Seq - sentWindow; sess.sentVideo.Len() > sentWindow && sess.sentFloor < cut {
		sess.sentFloor = cut
		sess.sentVideo.DropBelow(uint64(cut))
	}
}

// retransmit answers a NACK by resending the requested packets, each rebuilt
// in a fresh cell from its recorded header. Resends are exempt from the
// pacing budget: they are small, latency-critical, and the loss they answer
// already freed capacity.
func (sess *streamSession) retransmit(nk *rdt.Nack) {
	if sess.stopped || nk.Stream != rdt.StreamVideo {
		return
	}
	for _, seq := range nk.Seqs {
		if e := sess.sentVideo.Get(uint64(seq)); e != (sentMeta{}) {
			pkt := sess.srv.cfg.Arena.Data()
			e.meta(seq).Fill(pkt.Data, rdt.StreamVideo)
			sess.sendData(pkt)
		}
	}
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
