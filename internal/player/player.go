// Package player implements the RealPlayer/RealTracer client engine: it
// negotiates a session over RTSP, receives the RDT data stream over TCP or
// UDP, buffers, plays out frames on schedule, and records the per-clip
// statistics the study analyzes — encoded and measured bandwidth and frame
// rate, inter-frame jitter (standard deviation of playout gaps), frames
// dropped, rebuffering, transport protocol and CPU utilization.
//
// Buffering follows the paper's description (Section II.B): data buffers
// before playout begins (Figure 1 shows ~13 s); if the buffer empties
// mid-clip the player halts for up to 20 s while it refills.
package player

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"time"

	"realtracer/internal/detrand"
	"realtracer/internal/media"
	"realtracer/internal/netsim"
	"realtracer/internal/rdt"
	"realtracer/internal/rtsp"
	"realtracer/internal/seqwin"
	"realtracer/internal/session"
	"realtracer/internal/simclock"
	"realtracer/internal/transport"
)

// Defaults mirroring RealPlayer 8 behaviour.
const (
	// DefaultPreroll is the media depth buffered before playout starts
	// (Figure 1 shows roughly this much wall time spent filling).
	DefaultPreroll = 8 * time.Second
	// rebufferTarget is the refill depth after a mid-clip stall.
	rebufferTarget = 3 * time.Second
	// maxRebuffer caps a stall: "RealPlayer halts the clip playback for up
	// to 20 seconds while the buffer is filled again."
	maxRebuffer = 20 * time.Second
	// DefaultPlayFor is RealTracer's default per-clip playout (Section
	// III.A: "play the clip for 1 minute").
	DefaultPlayFor = time.Minute
	// reportInterval paces receiver reports and buffer-state updates.
	reportInterval = time.Second
	// idleTimeout aborts a session that has gone silent.
	idleTimeout = 30 * time.Second
	// lateWindow is how far past its deadline a frame may arrive and still
	// be played (late, at arrival — visible as jitter) rather than dropped.
	lateWindow = 400 * time.Millisecond
	// underrunGrace is how long the player waits on an empty buffer for the
	// next frame before declaring an underrun and halting to rebuffer.
	underrunGrace = 1200 * time.Millisecond
	// recoveryLag is the minimum age a frame must reach before display, so
	// FEC/NACK recoveries of slightly-older packets can land before their
	// playout slots even when the buffer is running dry.
	recoveryLag = 500 * time.Millisecond
)

// Config parameterizes one clip playout.
type Config struct {
	Clock *simclock.Clock
	Net   session.Net
	// ControlAddr is the server's RTSP endpoint ("host:554").
	ControlAddr string
	// ServerUDPAddr overrides the server's UDP data endpoint; by default it
	// is what DataAddr answers for ControlAddr, else the control host at the
	// well-known data port.
	ServerUDPAddr string
	// DataAddr, when set, returns the UDP data endpoint of the server at a
	// control address, or "" for one it does not know: a world answers with
	// the address its static world rendered once per site, so a SETUP
	// renders nothing.
	DataAddr func(controlAddr string) string
	// URL is the clip to request.
	URL string
	// Protocol is the transport requested for the data connection.
	Protocol transport.Protocol
	// MaxBandwidthKbps is the player's configured maximum bit rate (the
	// RealPlayer preference the server's stream selection honours).
	MaxBandwidthKbps float64
	// PlayFor bounds wall-clock playout; DefaultPlayFor when zero.
	PlayFor time.Duration
	// Preroll overrides the initial buffer depth; DefaultPreroll when zero.
	Preroll time.Duration
	// CPU is the end-host machine class.
	CPU CPUProfile
	// DisableScalableVideo turns off Scalable Video Technology's controlled
	// frame-rate reduction: an overloaded decoder then drops frames
	// erratically instead (ablation knob; Section II.C describes the
	// feature).
	DisableScalableVideo bool
	// Rand drives decode-time noise; a default source is used when nil.
	Rand *rand.Rand
	// OnDone receives the final statistics (always non-nil) and an error
	// for sessions that failed outright. The *Stats is owned by the player
	// and reused on Reset: consumers must copy what they keep.
	OnDone func(*Stats, error)
	// Arena backs sent packets (reports, buffer state, NACKs) and RTSP
	// requests; each comes back to it when its last reader releases it (see
	// rdt.Arena). A world passes its shard's. Nil means a private one, which
	// New creates and a Reset with a nil Arena keeps, so a packet or message
	// an earlier session minted stays valid until its last reader lets go.
	Arena *rdt.Arena
}

// Stats is the per-clip record RealTracer reported back to WPI.
type Stats struct {
	Protocol transport.Protocol

	// Encoded values of the stream initially selected by the server.
	EncodedKbps float64
	EncodedFPS  float64

	// Measured performance.
	MeasuredKbps float64 // bytes received over the receive interval
	MeasuredFPS  float64 // video frames played per second of playout time
	JitterMs     float64 // stddev of inter-frame playout gaps (ms)

	FramesPlayed      int
	FramesDroppedLate int // arrived after their deadline
	FramesDroppedCPU  int // shed by the decoder (scalable video)
	FramesLost        int // packets never arrived (post-FEC)
	FramesCorrupted   int // undisplayable: GOP decode chain broken by loss

	Rebuffers     int
	RebufferTime  time.Duration
	BufferingTime time.Duration // initial buffering (Figure 1's flat region)

	CPUUtilization float64 // 0-1 (1 = saturated)
	Switches       int     // SureStream encoding changes observed

	Unavailable bool   // clip was temporarily unavailable (Figure 10)
	Failed      bool   // session error other than unavailability
	FailReason  string // diagnostic detail for Failed sessions

	PlayDuration time.Duration // wall time spent in playing/rebuffering

	// Timeline holds one sample per second: the Figure-1 view of a session
	// (current bandwidth and frame rate against the encoded values).
	Timeline []TimePoint
}

// TimePoint is one per-second sample of a session.
type TimePoint struct {
	T    time.Duration // wall time since session start
	Kbps float64       // bandwidth received during the second
	FPS  float64       // video frames played during the second
}

// Player runs one clip session. Create with New, start with Start; the
// OnDone callback fires exactly once.
type Player struct {
	cfg Config
	st  *Stats

	ctl      transport.Conn
	data     transport.Conn
	dataIsMe bool // data conn owned by player (needs Close)
	sessID   string
	desc     session.ClipDesc
	cseq     int

	// recvControl and recvData are onControl and onData, bound once in New:
	// every conn the player opens gets one of them as its receiver.
	recvControl, recvData func(any, int)
	// descBuf is what ParseClipDesc parses into; desc takes it once a body
	// parses. Its storage — the encodings, and a title equal to the last —
	// serves every clip the player describes.
	descBuf session.ClipDesc
	// waits are the dial continuations not in use (see dialWait).
	waits []*dialWait
	// bandwidths are the Bandwidth values this player has rendered, the most
	// recently used first. A cap is its user's, and a world has a handful, so
	// as Reset hands the player from user to user each is rendered once.
	bandwidths [4]bandwidthValue
	// pending maps an outstanding request's CSeq to the kind of continuation
	// its response runs. Kinds instead of callbacks: the handshake state
	// machine is then plain data, which a world checkpoint can serialize.
	pending map[int]uint8

	state      string        // "setup", "buffering", "playing", "rebuffering", "done"
	playStart  time.Duration // wall time playout began
	mediaBase  time.Duration // playout offset: wall = mediaBase + mediaTime
	playPos    time.Duration // media position played so far
	endAt      simclock.Timer
	frameTimer simclock.Timer
	graceTimer simclock.Timer
	idle       simclock.Timer
	reportTick simclock.Timer

	// epoch guards the dial callbacks: Reset and Abort bump it, so a
	// handshake completing after the player moved on to another session
	// cannot install its connection into the recycled player.
	epoch uint32
	// dialing is the dial this session is waiting on (dialControl, dialData,
	// or 0 for none) and dialAddr the local address Net.DialTCP returned for
	// it — plain data, so a world checkpoint can persist the wait and hand
	// the restored dial its continuation back.
	dialing  uint8
	dialAddr string

	// Receive path. partials is a small linear-scan set: at most a handful
	// of frames are mid-assembly at once (streams interleave, fragments of
	// one frame arrive back to back), so a slice beats a map and its per-
	// entry allocations.
	frames   frameHeap // assembled, not yet played
	partials []partial

	// GOP decode-chain state (see trackDecodeChain).
	nextVideoIdx uint32
	videoIdxSeen bool
	chainBroken  bool
	bufEnd       time.Duration // highest buffered media time
	eos          bool
	firstRecvAt  time.Duration
	lastRecvAt   time.Duration
	bytesRecv    int

	// Video-stream loss tracking (UDP).
	highestSeq uint32
	// haveSeq is the FEC window: which recent video seqs have arrived.
	// Presence only — FEC repair, NACK retirement and duplicate
	// suppression never look at the packet again.
	haveSeq seqwin.Window[bool]
	// seqFloor is the cut of the last expiry sweep, the lowest seq possibly
	// still in haveSeq; lowSeqs lists the rare arrivals below it since (late
	// retransmissions), which the next sweep takes with the rest.
	seqFloor     uint32
	lowSeqs      []uint32
	recvSeqCount int
	recovered    int
	// Interval snapshots so reports carry per-interval loss, not cumulative
	// (cumulative loss would pin the rate controller to an early disaster).
	lastRepHighest uint32
	lastRepLost    int

	// NACK state: outstanding sequence gaps, each under one more than the
	// times it has been requested (up to nackMaxTries, like RDT's bounded
	// NAKs) — the window's zero value means absent.
	nackOutstanding seqwin.Window[int]
	nackTimer       simclock.Timer
	nackScratch     []uint32 // reused per-flush missing list

	// Playout record.
	playTimes []time.Duration // wall timestamps of played video frames

	// Interval measurements for reports.
	intBytes       int
	lastTickFrames int

	// CPU decimation.
	decimCount int

	// Current encoding as observed from data packets.
	curEncRate float64

	buffStart  time.Duration
	rebufStart time.Duration
	doneCalled bool

	// idleDeadline is the lazy idle cutoff: instead of re-arming a fresh
	// timer on every received packet, activity just advances the deadline
	// and one standing timer re-checks it when it expires.
	idleDeadline time.Duration

	// stats is the backing storage st points at, reused across Reset so a
	// pooled player's per-clip record costs no allocation.
	stats Stats
}

// The six timer handlers are the Player itself under distinct named types:
// converting *Player to e.g. *idleArm is free and pointer-shaped, so arming
// a timer boxes no value and allocates nothing, live or simulated.
type (
	idleArm     Player
	nackArm     Player
	reportArm   Player
	frameArm    Player
	underrunArm Player
	timeUpArm   Player
)

func (x *idleArm) Fire(time.Duration)      { (*Player)(x).idleCheck() }
func (x *nackArm) Fire(time.Duration)      { (*Player)(x).flushNacks() }
func (x *reportArm) Fire(time.Duration)    { (*Player)(x).sendReport() }
func (x *frameArm) Fire(now time.Duration) { (*Player)(x).playFrame(now) }
func (x *underrunArm) Fire(time.Duration)  { (*Player)(x).underrun() }
func (x *timeUpArm) Fire(time.Duration)    { (*Player)(x).timeUp() }

// New builds a Player; Start launches it.
func New(cfg Config) *Player {
	p := &Player{pending: make(map[int]uint8)}
	p.recvControl, p.recvData = p.onControl, p.onData
	p.descBuf.Encodings = make([]session.EncodingDesc, 0, len(media.SureStreamLadder()))
	p.init(cfg)
	return p
}

// Reset rewires a finished player for a new session, reusing every piece of
// grown storage: the map keeps its buckets, the emptied FEC window and NACK
// ledger their rings, the frame heap, partial set, playout record and scratch
// slices keep their backing arrays, the Stats record is cleared in place, and
// the bound receivers, parse scratch and idle dial continuations stay, as
// does a private packet arena when cfg names none. Stale state cannot leak
// across the reset: timers are cancelled
// (and generation checks make any already-recycled handle inert), the epoch
// bump disarms in-flight dial callbacks, and every other field is rebuilt
// through the struct literal, so a recycled player can never observe its
// predecessor's FEC window, NACK ledger or decode-chain state. The caller
// must not Reset a player whose session is still live — finish or Abort it
// first.
func (p *Player) Reset(cfg Config) {
	if cfg.Arena == nil {
		cfg.Arena = p.cfg.Arena
	}
	p.cancelTimers()
	clear(p.pending)
	p.haveSeq.Reset()
	p.nackOutstanding.Reset()
	timeline := p.stats.Timeline[:0]
	*p = Player{
		epoch:           p.epoch + 1,
		pending:         p.pending,
		recvControl:     p.recvControl,
		recvData:        p.recvData,
		descBuf:         p.descBuf,
		waits:           p.waits,
		bandwidths:      p.bandwidths,
		haveSeq:         p.haveSeq,
		nackOutstanding: p.nackOutstanding,
		partials:        p.partials[:0],
		frames:          p.frames[:0],
		playTimes:       p.playTimes[:0],
		lowSeqs:         p.lowSeqs[:0],
		nackScratch:     p.nackScratch[:0],
	}
	p.stats = Stats{Timeline: timeline}
	p.init(cfg)
}

func (p *Player) init(cfg Config) {
	if cfg.PlayFor <= 0 {
		cfg.PlayFor = DefaultPlayFor
	}
	if cfg.Preroll <= 0 {
		cfg.Preroll = DefaultPreroll
	}
	if cfg.CPU.Power <= 0 {
		cfg.CPU = PCPentiumIII
	}
	if cfg.Rand == nil {
		rng := detrand.Plain(1)
		cfg.Rand = &rng
	}
	if cfg.Arena == nil {
		cfg.Arena = new(rdt.Arena)
	}
	p.cfg = cfg
	p.state = "setup"
	p.stats.Protocol = cfg.Protocol
	p.st = &p.stats
}

// cancelTimers disarms every pending callback. Generation checks in the
// simulator make this safe against handles that already fired or whose
// events were recycled.
func (p *Player) cancelTimers() {
	p.endAt.Cancel()
	p.frameTimer.Cancel()
	p.graceTimer.Cancel()
	p.idle.Cancel()
	p.reportTick.Cancel()
	p.nackTimer.Cancel()
}

// Abort hard-stops the session without the polite TEARDOWN and without
// invoking OnDone — the open-loop departure path, where the user's host has
// already been torn out of the network (anything the close below tries to
// send is dropped at the source). After Abort the player is quiescent and
// safe to Reset.
func (p *Player) Abort() {
	p.epoch++ // disarm in-flight dial callbacks
	p.dialing, p.dialAddr = 0, ""
	p.cancelTimers()
	if p.doneCalled {
		return
	}
	p.doneCalled = true
	p.state = "done"
	if p.ctl != nil {
		p.ctl.Close()
	}
	if p.data != nil && p.dataIsMe {
		p.data.Close()
	}
}

// Idle reports whether the session is over and nothing of it is armed: it
// finished or was aborted, which closed its conns, and no timer of it is
// pending.
func (p *Player) Idle() bool {
	return p.doneCalled && !p.endAt.Active() && !p.frameTimer.Active() && !p.graceTimer.Active() &&
		!p.idle.Active() && !p.reportTick.Active() && !p.nackTimer.Active()
}

// Start begins the session: dial control, DESCRIBE, SETUP, PLAY.
func (p *Player) Start() {
	p.touchIdle()
	p.dial(dialControl, p.cfg.ControlAddr)
}

// Dial kinds: which connection a pending dial opens.
const (
	dialControl = 1
	dialData    = 2
)

func (p *Player) dial(kind uint8, addr string) {
	p.dialing = kind
	p.dialAddr = p.cfg.Net.DialTCP(addr, p.dialDone(kind))
}

// dialWait is the continuation of one dial: the kind of conn it opens and
// the epoch it was issued in, so a handshake that completes after the player
// moved on cannot install its conn. The stack calls a continuation exactly
// once, so each wait goes back on its player's free-list when called, with
// its method value bound once: a player that has dialled before dials without
// allocating.
type dialWait struct {
	p     *Player
	kind  uint8
	epoch uint32
	done  func(transport.Conn, error) // w.finish
}

// dialDone leases the continuation of a dial of the given kind, bound to the
// current epoch.
func (p *Player) dialDone(kind uint8) func(transport.Conn, error) {
	var w *dialWait
	if k := len(p.waits) - 1; k >= 0 {
		w, p.waits = p.waits[k], p.waits[:k]
	} else {
		w = &dialWait{p: p}
		w.done = w.finish
	}
	w.kind, w.epoch = kind, p.epoch
	return w.done
}

func (w *dialWait) finish(c transport.Conn, err error) {
	p, kind := w.p, w.kind
	stale := p.epoch != w.epoch
	p.waits = append(p.waits, w)
	if stale {
		// The player was recycled while the handshake was in flight; the
		// connection (if any) belongs to nobody.
		if c != nil {
			c.Close()
		}
		return
	}
	p.dialing, p.dialAddr = 0, ""
	switch {
	case err != nil && kind == dialControl:
		p.finish(fmt.Errorf("player: control dial: %w", err))
	case err != nil:
		p.finish(err)
	case kind == dialControl:
		p.ctl = c
		c.SetReceiver(p.recvControl)
		p.describe()
	default:
		p.data = c
		p.dataIsMe = true
		c.SetReceiver(p.recvData)
		hello := &session.DataHello{SessionID: p.sessID}
		c.Send(hello, len(p.sessID)+1)
		p.play()
	}
}

// Pending-request kinds: which continuation a response dispatches to.
const (
	pendDescribe = 1
	pendSetup    = 2
	pendPlay     = 3
)

func (p *Player) request(m *rtsp.Message, kind uint8) {
	p.cseq++
	m.CSeq = p.cseq
	if kind != 0 {
		p.pending[p.cseq] = kind
	}
	p.ctl.Send(m, m.WireSize())
}

func (p *Player) onControl(payload any, _ int) {
	p.touchIdle()
	resp, ok := payload.(*rtsp.Message)
	if !ok || resp.Request {
		return
	}
	kind, ok := p.pending[resp.CSeq]
	if !ok {
		return
	}
	delete(p.pending, resp.CSeq)
	switch kind {
	case pendDescribe:
		p.onDescribeResp(resp)
	case pendSetup:
		p.onSetupResp(resp)
	case pendPlay:
		p.onPlayResp(resp)
	}
}

func (p *Player) describe() {
	req := p.cfg.Arena.Messages().Request(rtsp.MethodDescribe, p.cfg.URL, 0)
	p.request(req, pendDescribe)
}

func (p *Player) onDescribeResp(resp *rtsp.Message) {
	switch resp.Status {
	case rtsp.StatusOK:
	case rtsp.StatusUnavailable:
		p.st.Unavailable = true
		p.finish(ErrUnavailable)
		return
	default:
		p.finish(fmt.Errorf("player: DESCRIBE failed: %d %s", resp.Status, resp.Reason))
		return
	}
	if err := session.ParseClipDesc(resp.Body, &p.descBuf); err != nil {
		p.finish(err)
		return
	}
	p.desc = p.descBuf
	p.presize()
	p.setup()
}

// presize grows the per-clip scratch, before any of it fills, to what this
// clip can fill: a pooled player then allocates for a clip once, on the first
// that needs that much, instead of doubling its way up clip after clip. The
// bound is the frame rate of the highest rung the server may stream (it picks,
// and switches at or below, the rung the bandwidth cap selects) over the
// media the session can play. Stats keeps its ownership: the timeline is the
// player's, reused on Reset like the rest.
func (p *Player) presize() {
	var fps float64
	for i, e := range p.desc.Encodings {
		if i == 0 || e.TotalKbps <= p.cfg.MaxBandwidthKbps {
			fps = max(fps, e.FrameRate)
		}
	}
	span := min(p.desc.Duration, p.cfg.PlayFor).Seconds()
	played := int(fps*span) + 1
	p.playTimes = slices.Grow(p.playTimes, played)
	// The heap holds at least a preroll's worth before playout starts, audio
	// at four packets a second included; a deeper buffer grows it further.
	p.frames = slices.Grow(p.frames, int((fps+4)*p.cfg.Preroll.Seconds()))
	p.partials = slices.Grow(p.partials, 8) // a handful mid-assembly at once
	st := &p.stats
	st.Timeline = slices.Grow(st.Timeline, int((p.cfg.PlayFor+p.cfg.Preroll+maxRebuffer)/reportInterval)+1)
}

// ErrUnavailable marks the clip-temporarily-unavailable outcome of Fig. 10.
var ErrUnavailable = errors.New("player: clip unavailable")

// tcpTransport is the Transport value of a SETUP asking for TCP data,
// rtsp.TransportSpec{Protocol: "tcp"}.Format(): the player dials the data conn
// itself and names the session in its DataHello, so there is no address to
// advertise.
const tcpTransport = "proto=tcp"

func (p *Player) setup() {
	spec := tcpTransport
	if p.cfg.Protocol == transport.UDP {
		// Bind the data socket first so SETUP can advertise its address.
		// Connected-UDP semantics need the server's data endpoint up front:
		// the well-known port on the control host unless overridden.
		udpAddr := p.cfg.ServerUDPAddr
		if udpAddr == "" && p.cfg.DataAddr != nil {
			udpAddr = p.cfg.DataAddr(p.cfg.ControlAddr)
		}
		if udpAddr == "" {
			udpAddr = netsim.Addr(p.cfg.ControlAddr).Host() + ":" + strconv.Itoa(session.DataUDPPort)
		}
		conn, err := p.cfg.Net.DialUDP(udpAddr)
		if err != nil {
			p.finish(err)
			return
		}
		p.data = conn
		p.dataIsMe = true
		conn.SetReceiver(p.recvData)
		spec = rtsp.TransportSpec{Protocol: "udp", ClientDataAddr: conn.LocalAddr()}.Format()
	}
	req := p.cfg.Arena.Messages().Request(rtsp.MethodSetup, p.cfg.URL, 0)
	req.Set("Transport", spec)
	req.Set("Bandwidth", p.bandwidth())
	p.request(req, pendSetup)
}

// bandwidthValue is a Bandwidth header value: a cap in kbps and its decimal
// text.
type bandwidthValue struct {
	kbps int
	text string
}

// bandwidth returns the Bandwidth value of the player's cap, rendering it
// only if it is not among the ones rendered before.
func (p *Player) bandwidth() string {
	kbps := int(p.cfg.MaxBandwidthKbps)
	i := slices.IndexFunc(p.bandwidths[:], func(b bandwidthValue) bool { return b.text != "" && b.kbps == kbps })
	if i < 0 {
		i = len(p.bandwidths) - 1
		p.bandwidths[i] = bandwidthValue{kbps, strconv.Itoa(kbps)}
	}
	b := p.bandwidths[i]
	copy(p.bandwidths[1:i+1], p.bandwidths[:i])
	p.bandwidths[0] = b
	return b.text
}

func (p *Player) onSetupResp(resp *rtsp.Message) {
	if resp.Status != rtsp.StatusOK {
		p.finish(fmt.Errorf("player: SETUP failed: %d", resp.Status))
		return
	}
	p.sessID = resp.Get("Session")
	srvSpec, err := rtsp.ParseTransport(resp.Get("Transport"))
	if err != nil {
		p.finish(err)
		return
	}
	if p.cfg.Protocol == transport.TCP {
		p.dial(dialData, srvSpec.ServerDataAddr)
		return
	}
	p.play()
}

func (p *Player) play() {
	req := p.cfg.Arena.Messages().Request(rtsp.MethodPlay, p.cfg.URL, 0)
	req.Set("Session", p.sessID)
	p.request(req, pendPlay)
}

func (p *Player) onPlayResp(resp *rtsp.Message) {
	if resp.Status != rtsp.StatusOK {
		p.finish(fmt.Errorf("player: PLAY failed: %d", resp.Status))
		return
	}
	p.state = "buffering"
	p.buffStart = p.cfg.Clock.Now()
	p.endAt = p.cfg.Clock.AfterHandler(p.cfg.PlayFor+p.cfg.Preroll+maxRebuffer, (*timeUpArm)(p))
	p.reportTick = p.cfg.Clock.AfterHandler(reportInterval, (*reportArm)(p))
}

// --- receive path ---

type partial struct {
	key       uint64 // stream<<32 | frame index
	mediaTime time.Duration
	video     bool
	keyframe  bool
	encRate   float64
	index     uint32
	count     uint8
	got       uint16 // bitmap over fragments (FragCount <= 16 in practice)
	need      uint8
}

// bufFrame is an assembled frame waiting for playout: 24 bytes. The encoding
// rate a frame arrived under is read before it is buffered (enqueueFrame),
// so the buffer does not keep it.
type bufFrame struct {
	mediaTime time.Duration
	arrived   time.Duration // wall time the frame finished assembling
	index     uint32
	video     bool
	keyframe  bool
}

// frameHeap is the playout buffer: a binary min-heap on mediaTime.
type frameHeap []bufFrame

func (h *frameHeap) push(f bufFrame) {
	*h = append(*h, f)
	a := *h
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if a[parent].mediaTime <= a[i].mediaTime {
			break
		}
		a[i], a[parent] = a[parent], a[i]
		i = parent
	}
}

// pop removes the earliest frame, bottom-up (Wegener 1993): the hole the root
// leaves walks down the min-child path to a leaf, then the displaced last
// entry sifts up from there while its parent is ≥ it. The array ends exactly
// as a textbook sift-down of the last entry from the root leaves it, ties
// included — the children on the path are ordered, so the entry stops
// below the same ones — but each level costs one comparison, not two, and a
// near-sorted buffer's last entry seldom moves up at all.
func (h *frameHeap) pop() bufFrame {
	a := *h
	top := a[0]
	n := len(a) - 1
	last := a[n]
	a = a[:n]
	*h = a
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && a[c+1].mediaTime < a[c].mediaTime {
			c++
		}
		a[i] = a[c]
		i = c
	}
	for i > 0 {
		parent := (i - 1) / 2
		if a[parent].mediaTime < last.mediaTime {
			break
		}
		a[i] = a[parent]
		i = parent
	}
	a[i] = last
	return top
}

func (p *Player) onData(payload any, size int) {
	if p.state == "done" {
		return
	}
	p.touchIdle()
	pkt, ok := payload.(*rdt.Packet)
	if !ok {
		return
	}
	now := p.cfg.Clock.Now()
	if p.firstRecvAt == 0 {
		p.firstRecvAt = now
	}
	p.lastRecvAt = now
	p.bytesRecv += size
	p.intBytes += size

	switch pkt.Kind {
	case rdt.TypeData:
		p.onDataPacket(pkt.Data)
	case rdt.TypeRepair:
		p.onRepair(pkt.Repair)
	case rdt.TypeEndOfStream:
		p.eos = true
		p.checkPlayable()
	}
}

func (p *Player) onDataPacket(d *rdt.Data) {
	if d.Stream == rdt.StreamVideo {
		if p.haveSeq.Get(uint64(d.Seq)) {
			return // retransmission of something FEC already rebuilt
		}
		if gap := d.Seq - p.highestSeq - 1; d.Seq > p.highestSeq+1 && gap <= nackMaxGap &&
			p.data != nil && p.data.Protocol() == transport.UDP {
			// Sequence gap: queue NACKs for the missing packets.
			for seq := p.highestSeq + 1; seq < d.Seq; seq++ {
				if p.nackOutstanding.Get(uint64(seq)) == 0 {
					p.nackOutstanding.Put(uint64(seq), 1)
				}
			}
			p.armNack()
		}
		if d.Seq > p.highestSeq {
			p.highestSeq = d.Seq
		}
		p.recvSeqCount++
		if d.Seq < p.seqFloor {
			p.lowSeqs = append(p.lowSeqs, d.Seq)
		}
		p.haveSeq.Put(uint64(d.Seq), true)
		p.gcSeqs()
	}
	p.assemble(d)
}

// NACK pacing: the first request goes out after a short debounce (so one
// burst produces one NACK); unanswered requests are retried a bounded
// number of times, as RDT did.
const (
	nackDelay    = 120 * time.Millisecond
	nackRetry    = 350 * time.Millisecond
	nackMaxTries = 4
	// nackMaxGap is the widest sequence gap worth NACKing. A clip is a few
	// thousand video packets, so a wider gap is a corrupt or hostile sequence
	// number, and walking it would spin for up to 2^32 iterations and grow
	// the NACK ledger without bound.
	nackMaxGap = 1 << 16
)

func (p *Player) armNack() {
	if p.nackTimer.Active() {
		return
	}
	p.nackTimer = p.cfg.Clock.AfterHandler(nackDelay, (*nackArm)(p))
}

func (p *Player) flushNacks() {
	if p.state == "done" || p.data == nil {
		return
	}
	// The ledger walks in ascending seq order, and must not change under the
	// walk: one scratch takes the seqs to ask for again from its front, in
	// that order, and the ones to retire from its back.
	n := p.nackOutstanding.Len()
	walked := slices.Grow(p.nackScratch[:0], n)[:n]
	p.nackScratch = walked[:0]
	ask, retire := 0, n
	for seq, asked := range p.nackOutstanding.Each {
		if p.haveSeq.Get(seq) || asked > nackMaxTries {
			retire--
			walked[retire] = uint32(seq)
		} else {
			walked[ask] = uint32(seq)
			ask++
		}
	}
	for _, seq := range walked[retire:] {
		p.nackOutstanding.Delete(uint64(seq))
	}
	missing := walked[:ask]
	for _, seq := range missing {
		p.nackOutstanding.Put(uint64(seq), p.nackOutstanding.Get(uint64(seq))+1)
	}
	if len(missing) == 0 {
		return
	}
	for off := 0; off < len(missing); off += rdt.MaxNackSeqs {
		end := off + rdt.MaxNackSeqs
		if end > len(missing) {
			end = len(missing)
		}
		pkt := p.cfg.Arena.Nack()
		nk := pkt.Nack
		nk.Stream = rdt.StreamVideo
		nk.Seqs = append(nk.Seqs, missing[off:end]...)
		p.data.Send(pkt, rdt.WireSize(pkt))
	}
	// Retry unanswered requests.
	p.nackTimer = p.cfg.Clock.AfterHandler(nackRetry, (*nackArm)(p))
}

// gcSeqs bounds the FEC window. Expiry is triggered by the window's size,
// not a packet's age: once more than window seqs are held, everything below
// highestSeq-window goes — the low arrivals recorded since the last sweep
// with it — and seqFloor follows the cut. Under loss the window therefore
// reaches well below highestSeq-window between sweeps, and which old seqs
// are still members decides what onRepair can rebuild and which NACKs
// retire.
func (p *Player) gcSeqs() {
	const window = 512
	if p.haveSeq.Len() <= window {
		return
	}
	cut := uint32(0)
	if p.highestSeq > window {
		cut = p.highestSeq - window
	}
	p.haveSeq.DropBelow(uint64(cut))
	if p.seqFloor < cut {
		p.seqFloor = cut
	}
	p.lowSeqs = p.lowSeqs[:0]
}

func (p *Player) assemble(d *rdt.Data) {
	fc := d.FragCount
	if fc == 0 {
		fc = 1
	}
	if fc == 1 {
		// Single-fragment frame — the overwhelmingly common case: enqueue
		// directly, no assembly state needed.
		p.enqueueFrame(bufFrame{
			mediaTime: time.Duration(d.MediaTime) * time.Millisecond,
			arrived:   p.cfg.Clock.Now(),
			video:     d.Stream == rdt.StreamVideo,
			keyframe:  d.Flags&rdt.FlagKeyframe != 0,
			index:     d.FrameIndex,
		}, float64(d.EncRate))
		return
	}
	key := uint64(d.Stream)<<32 | uint64(d.FrameIndex)
	pi := -1
	for i := range p.partials {
		if p.partials[i].key == key {
			pi = i
			break
		}
	}
	if pi < 0 {
		p.partials = append(p.partials, partial{
			key:       key,
			mediaTime: time.Duration(d.MediaTime) * time.Millisecond,
			video:     d.Stream == rdt.StreamVideo,
			keyframe:  d.Flags&rdt.FlagKeyframe != 0,
			encRate:   float64(d.EncRate),
			index:     d.FrameIndex,
			count:     fc,
		})
		pi = len(p.partials) - 1
	}
	pt := &p.partials[pi]
	bit := uint16(1) << d.FragIndex
	if pt.got&bit != 0 {
		return // duplicate fragment
	}
	pt.got |= bit
	pt.need++
	if pt.need >= pt.count {
		done := *pt
		// Swap-remove: assembly order does not depend on set order.
		last := len(p.partials) - 1
		p.partials[pi] = p.partials[last]
		p.partials = p.partials[:last]
		p.enqueueFrame(bufFrame{
			mediaTime: done.mediaTime,
			arrived:   p.cfg.Clock.Now(),
			video:     done.video,
			keyframe:  done.keyframe,
			index:     done.index,
		}, done.encRate)
	}
}

// enqueueFrame buffers an assembled frame, sent under the encoding rate
// encRate.
func (p *Player) enqueueFrame(f bufFrame, encRate float64) {
	if encRate > 0 && f.video {
		if p.curEncRate == 0 {
			p.curEncRate = encRate
			p.st.EncodedKbps = encRate
			p.st.EncodedFPS = p.desc.FrameRateFor(encRate)
		} else if encRate != p.curEncRate && f.index+1 >= p.nextVideoIdx {
			// Only in-order frames mark a SureStream switch; retransmitted
			// frames carry the encoding they were originally sent under.
			p.curEncRate = encRate
			p.st.Switches++
		}
	}
	if f.mediaTime > p.bufEnd {
		p.bufEnd = f.mediaTime
	}
	// Hopelessly late arrival while playing: drop. Mildly late frames are
	// admitted and played late by the playout engine (visible as jitter).
	if p.state == "playing" && f.mediaTime < p.playPos {
		if f.video {
			p.st.FramesDroppedLate++
		}
		return
	}
	p.frames.push(f)
	if p.state == "playing" && !p.frameTimer.Active() {
		// The playout engine was waiting for data (underrun grace period);
		// new media restarts it.
		p.scheduleNextFrame()
		return
	}
	p.checkPlayable()
}

// onRepair reconstructs a single missing video packet in the repair group.
// XOR parity over full packets recovers the missing packet exactly — header
// and payload — so the reconstruction uses the authoritative metadata the
// repair carries.
func (p *Player) onRepair(r *rdt.Repair) {
	if r.Stream != rdt.StreamVideo {
		return
	}
	var seq uint32
	nMissing := 0
	for s := r.BaseSeq; s < r.BaseSeq+uint32(r.Group); s++ {
		if !p.haveSeq.Get(uint64(s)) {
			seq = s
			if nMissing++; nMissing > 1 {
				return // >1 missing: unrecoverable by XOR
			}
		}
	}
	if nMissing == 0 {
		return // nothing to do
	}
	m, ok := r.MetaFor(seq)
	if !ok {
		return
	}
	// The rebuilt packet is consumed before onDataPacket returns, like one
	// off the wire, so it needs no cell: it lives on this frame (the
	// compiler's escape analysis agrees, and TestRepairAllocatesNothing
	// holds it to that).
	var rec rdt.Data
	m.Fill(&rec, rdt.StreamVideo)
	p.recovered++
	p.onDataPacket(&rec)
}

// --- playout engine ---

func (p *Player) bufferDepth() time.Duration {
	if len(p.frames) == 0 {
		return 0
	}
	return p.bufEnd - p.frames[0].mediaTime
}

// checkPlayable transitions out of (re)buffering when enough media is
// queued.
func (p *Player) checkPlayable() {
	now := p.cfg.Clock.Now()
	switch p.state {
	case "buffering":
		if p.bufferDepth() >= p.cfg.Preroll || (p.eos && len(p.frames) > 0) {
			p.st.BufferingTime = now - p.buffStart
			p.beginPlayout(now)
		}
	case "rebuffering":
		stalled := now - p.rebufStart
		if p.bufferDepth() >= rebufferTarget || stalled >= maxRebuffer || (p.eos && len(p.frames) > 0) {
			p.st.RebufferTime += stalled
			p.resumePlayout(now)
		}
	}
}

func (p *Player) beginPlayout(now time.Duration) {
	p.state = "playing"
	p.playStart = now
	if len(p.frames) > 0 {
		p.playPos = p.frames[0].mediaTime
	}
	p.mediaBase = now - p.playPos
	// Re-arm the session end for the configured playout length.
	p.endAt.Cancel()
	p.endAt = p.cfg.Clock.AfterHandler(p.cfg.PlayFor, (*timeUpArm)(p))
	p.scheduleNextFrame()
}

func (p *Player) resumePlayout(now time.Duration) {
	p.state = "playing"
	if len(p.frames) > 0 {
		p.playPos = p.frames[0].mediaTime
	}
	p.mediaBase = now - p.playPos
	p.scheduleNextFrame()
}

func (p *Player) scheduleNextFrame() {
	p.frameTimer.Cancel()
	if p.state != "playing" {
		return
	}
	now := p.cfg.Clock.Now()
	if len(p.frames) == 0 {
		if p.eos {
			p.finish(nil)
			return
		}
		// Nothing to play. Wait briefly for the next frame (it may merely
		// be late); only a sustained drought is an underrun that halts
		// playback for rebuffering.
		if !p.graceTimer.Active() {
			p.graceTimer = p.cfg.Clock.AfterHandler(underrunGrace, (*underrunArm)(p))
		}
		return
	}
	p.graceTimer.Cancel()
	// A frame plays at its scheduled time, but never before it has aged
	// recoveryLag: on a starved path this turns playout arrival-paced
	// (steady-slow) while leaving room for loss recoveries to land.
	due := p.mediaBase + p.frames[0].mediaTime
	if earliest := p.frames[0].arrived + recoveryLag; earliest > due {
		due = earliest
	}
	if due <= now {
		p.playFrame(now)
		return
	}
	p.frameTimer = p.cfg.Clock.AfterHandler(due-now, (*frameArm)(p))
}

// underrun fires when the buffer stayed empty through the grace window:
// playback halts while the buffer refills (up to 20 s — Section II.B).
func (p *Player) underrun() {
	if p.state != "playing" || len(p.frames) > 0 {
		return
	}
	if p.eos {
		p.finish(nil)
		return
	}
	p.state = "rebuffering"
	p.rebufStart = p.cfg.Clock.Now()
	p.st.Rebuffers++
	// A stalled stream that never refills is ended by the idle timer or the
	// session end timer.
}

func (p *Player) playFrame(now time.Duration) {
	if p.state != "playing" || len(p.frames) == 0 {
		p.scheduleNextFrame()
		return
	}
	f := p.frames.pop()
	p.playPos = f.mediaTime
	lateness := now - (p.mediaBase + f.mediaTime)
	if lateness > lateWindow {
		// Playout has fallen behind its clock: slip the clock rather than
		// discard media. This is the player's controlled degradation — on a
		// starved path playout becomes arrival-paced (steady but slow),
		// which is the "slideshow" mode of sub-3-fps clips. The pacing
		// itself comes from the recoveryLag floor in scheduleNextFrame; the
		// slip only re-anchors the clock.
		p.mediaBase += lateness
		lateness = 0
	}
	if f.video {
		// GOP decode-chain accounting in presentation order: a frame that
		// never made it to its playout slot breaks the predictive chain,
		// rendering later frames undisplayable until the next keyframe
		// reaches the decoder — the amplification that turns modest packet
		// loss into slideshow playback.
		if p.videoIdxSeen && f.index > p.nextVideoIdx {
			p.chainBroken = true
		}
		if f.index >= p.nextVideoIdx {
			p.nextVideoIdx = f.index + 1
			p.videoIdxSeen = true
		}
		if f.keyframe {
			p.chainBroken = false
		}
		switch {
		case p.chainBroken:
			// Data arrived, but a lost reference frame upstream makes it
			// undecodable.
			p.st.FramesCorrupted++
		case p.decimate():
			p.st.FramesDroppedCPU++
		default:
			// The frame is displayed now — which for late frames is after
			// its deadline, and for on-time frames after decode-time noise
			// that grows with machine load.
			at := now + p.decodeNoise()
			p.playTimes = append(p.playTimes, at)
			p.st.FramesPlayed++
		}
	}
	p.scheduleNextFrame()
}

// decodeNoise models decode-time variance: near-zero on fast machines,
// tens of milliseconds on saturated or memory-starved ones.
func (p *Player) decodeNoise() time.Duration {
	fps := p.st.EncodedFPS
	if fps <= 0 {
		fps = 15
	}
	w, h := p.frameDims()
	util := p.cfg.CPU.utilization(w, h, fps)
	sigma := 1.0 + 10*util*util // ms
	if p.cfg.CPU.MemMB < 64 {
		sigma += 12 // paging on low-memory machines
	}
	if p.cfg.DisableScalableVideo && util > 1 {
		sigma *= 4 // erratic decode scheduling when overloaded
	}
	n := p.cfg.Rand.NormFloat64() * sigma
	if n < 0 {
		n = -n
	}
	return time.Duration(n * float64(time.Millisecond))
}

// decimate implements Scalable Video Technology: when the encoded rate
// exceeds the machine's decode capacity, play 1 of every k frames.
func (p *Player) decimate() bool {
	fps := p.st.EncodedFPS
	if fps <= 0 {
		fps = 15
	}
	w, h := p.frameDims()
	maxFPS := p.cfg.CPU.maxFPS(w, h)
	if fps <= maxFPS {
		return false
	}
	if p.cfg.DisableScalableVideo {
		// Without Scalable Video the overloaded decoder sheds frames
		// erratically rather than "in a controlled fashion".
		return p.cfg.Rand.Float64() < 1-maxFPS/fps
	}
	k := int(fps/maxFPS + 0.999)
	if k < 2 {
		k = 2
	}
	p.decimCount++
	return p.decimCount%k != 0
}

func (p *Player) frameDims() (int, int) {
	for _, e := range p.desc.Encodings {
		if e.TotalKbps == p.curEncRate {
			return e.Width, e.Height
		}
	}
	return 320, 240
}

// --- feedback ---

func (p *Player) sendReport() {
	if p.state == "done" {
		return
	}
	p.reportTick = p.cfg.Clock.AfterHandler(reportInterval, (*reportArm)(p))
	// Timeline sample (Figure 1): bandwidth and frame rate this second.
	p.st.Timeline = append(p.st.Timeline, TimePoint{
		T:    p.cfg.Clock.Now(),
		Kbps: float64(p.intBytes) * 8 / 1000 / reportInterval.Seconds(),
		FPS:  float64(p.st.FramesPlayed - p.lastTickFrames),
	})
	p.lastTickFrames = p.st.FramesPlayed
	if p.data == nil {
		return
	}
	// Interval accounting: packets expected and lost since the last report.
	totalLost := p.lostPackets()
	intLost := totalLost - p.lastRepLost
	if intLost < 0 {
		intLost = 0 // FEC recovered packets counted lost last interval
	}
	intExpected := int(p.highestSeq) - int(p.lastRepHighest)
	if intExpected < 0 {
		intExpected = 0
	}
	p.lastRepLost = totalLost
	p.lastRepHighest = p.highestSeq
	rate := float64(p.intBytes) * 8 / 1000 / reportInterval.Seconds()
	p.intBytes = 0
	var rttMs uint16
	if p.ctl != nil && p.ctl.RTT() > 0 {
		rttMs = uint16(p.ctl.RTT().Milliseconds())
	}
	rep := p.cfg.Arena.Report()
	*rep.Report = rdt.Report{
		Expected: uint32(intExpected),
		Lost:     uint32(intLost),
		RateKbps: clampU16(rate),
		JitterMs: clampU16(p.currentJitterMs()),
		BufferMs: clampU16(p.bufferDepth().Seconds() * 1000),
		RTTMs:    rttMs,
	}
	p.data.Send(rep, rdt.WireSize(rep))
	bs := p.cfg.Arena.BufferState()
	*bs.BufferState = rdt.BufferState{
		Ms:     uint32(p.bufferDepth().Milliseconds()),
		Target: uint32(p.cfg.Preroll.Milliseconds()),
	}
	p.data.Send(bs, rdt.WireSize(bs))
}

func clampU16(v float64) uint16 {
	if v < 0 {
		return 0
	}
	if v > 65535 {
		return 65535
	}
	return uint16(v)
}

func (p *Player) lostPackets() int {
	expected := int(p.highestSeq) + 1
	lost := expected - p.recvSeqCount - p.recovered
	if lost < 0 {
		lost = 0
	}
	return lost
}

func (p *Player) currentJitterMs() float64 {
	n := len(p.playTimes)
	if n < 3 {
		return 0
	}
	window := p.playTimes
	if n > 40 {
		window = p.playTimes[n-40:]
	}
	return jitterMs(window)
}

// jitterMs is the paper's jitter metric: the population standard deviation
// of the inter-frame playout gaps in times, in milliseconds. It is
// stats.StdDev of the gap list, term for term and in the same order, with
// each gap recomputed where StdDev would read it instead of kept in a slice.
func jitterMs(times []time.Duration) float64 {
	if len(times) < 3 {
		return 0
	}
	gap := func(i int) float64 { return float64((times[i] - times[i-1]).Microseconds()) / 1000 }
	n := float64(len(times) - 1)
	var sum float64
	for i := 1; i < len(times); i++ {
		sum += gap(i)
	}
	mean := sum / n
	var ss float64
	for i := 1; i < len(times); i++ {
		d := gap(i) - mean
		ss += d * d
	}
	return math.Sqrt(ss / n)
}

// --- session end ---

func (p *Player) timeUp() { p.finish(nil) }

func (p *Player) touchIdle() {
	if p.state == "done" {
		p.idle.Cancel()
		return
	}
	p.idleDeadline = p.cfg.Clock.Now() + idleTimeout
	if !p.idle.Active() {
		p.idle = p.cfg.Clock.AfterHandler(idleTimeout, (*idleArm)(p))
	}
}

// idleCheck fires when the standing idle timer expires: if activity moved
// the deadline forward in the meantime it re-arms for the remainder,
// otherwise the session has truly been idle for idleTimeout and ends — the
// same instant the old per-packet re-armed timer would have fired.
func (p *Player) idleCheck() {
	if p.state == "done" {
		return
	}
	now := p.cfg.Clock.Now()
	if now >= p.idleDeadline {
		p.finish(errors.New("player: session idle timeout"))
		return
	}
	p.idle = p.cfg.Clock.AfterHandler(p.idleDeadline-now, (*idleArm)(p))
}

func (p *Player) finish(err error) {
	if p.doneCalled {
		return
	}
	p.doneCalled = true
	prevState := p.state
	p.state = "done"
	now := p.cfg.Clock.Now()

	// Account a stall in progress.
	if prevState == "rebuffering" {
		p.st.RebufferTime += now - p.rebufStart
	}

	p.cancelTimers()
	// Polite teardown when the control channel is up.
	if p.ctl != nil {
		req := p.cfg.Arena.Messages().Request(rtsp.MethodTeardown, p.cfg.URL, 0)
		req.Set("Session", p.sessID)
		p.cseq++
		req.CSeq = p.cseq
		p.ctl.Send(req, req.WireSize())
		p.ctl.Close()
	}
	if p.data != nil && p.dataIsMe {
		p.data.Close()
	}

	p.finalizeStats(now, err)
	if err != nil && !errors.Is(err, ErrUnavailable) {
		p.st.Failed = true
		p.st.FailReason = err.Error()
	}
	if p.cfg.OnDone != nil {
		p.cfg.OnDone(p.st, err)
	}
}

func (p *Player) finalizeStats(now time.Duration, err error) {
	st := p.st
	if p.playStart > 0 {
		st.PlayDuration = now - p.playStart
	}
	if st.PlayDuration > 0 {
		st.MeasuredFPS = float64(st.FramesPlayed) / st.PlayDuration.Seconds()
	}
	if p.lastRecvAt > p.firstRecvAt {
		st.MeasuredKbps = float64(p.bytesRecv) * 8 / 1000 / (p.lastRecvAt - p.firstRecvAt).Seconds()
	}
	st.JitterMs = jitterMs(p.playTimes)
	st.FramesLost = p.lostPackets()
	fps := st.MeasuredFPS
	w, h := p.frameDims()
	util := p.cfg.CPU.utilization(w, h, fps)
	if util > 1 {
		util = 1
	}
	st.CPUUtilization = util
}
