// Package server implements the RealServer analog: an RTSP-controlled
// streaming server that serves SureStream-encoded clips over TCP or UDP
// data connections.
//
// Behaviours reproduced from the paper (Section II):
//
//   - two connections per session: an RTSP control connection (always TCP)
//     and a separate data connection (TCP or UDP, negotiated in SETUP);
//   - SureStream: the server picks the best encoding for the client's
//     stated bandwidth and switches streams mid-playout as conditions
//     change ("switching to a lower bandwidth stream during network
//     congestion and then back ... when congestion clears");
//   - application-layer congestion control on UDP data flows, driven by
//     receiver reports (internal/ratecontrol);
//   - error-correction packets on lossy UDP flows ("special packets that
//     correct errors are sent to reconstruct the lost data");
//   - a clip-availability fault model: on average about 10 % of clip
//     requests in the study found the clip temporarily unavailable
//     (Figure 10), with per-server rates varying.
package server

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"realtracer/internal/media"
	"realtracer/internal/ratecontrol"
	"realtracer/internal/rdt"
	"realtracer/internal/rtsp"
	"realtracer/internal/session"
	"realtracer/internal/transport"
	"realtracer/internal/vclock"
)

// Config parameterizes a Server.
type Config struct {
	Clock   vclock.Clock
	Net     session.Net
	Library *media.Library
	// Rand drives the availability fault model. Required.
	Rand *rand.Rand
	// Unavailability is the probability a DESCRIBE finds the clip
	// temporarily unavailable (Figure 10). Typical servers: 0.03-0.20.
	Unavailability float64
	// SureStream enables mid-playout stream switching (ablation knob;
	// default on via New).
	SureStream bool
	// FEC enables repair packets on UDP flows (ablation knob).
	FEC bool
	// NewController builds the UDP rate controller for a session; nil means
	// TFRC with default limits.
	NewController func(startKbps float64) ratecontrol.Controller
	// BufferAhead is how much media the server tries to keep buffered ahead
	// of the client's playout (drives the initial burst). Default 12 s.
	BufferAhead time.Duration
	// ControlPort etc. default to the session package's well-known ports.
	ControlPort, DataTCPPort, DataUDPPort int
}

func (c *Config) fillDefaults() {
	if c.BufferAhead <= 0 {
		c.BufferAhead = 12 * time.Second
	}
	if c.ControlPort == 0 {
		c.ControlPort = session.ControlPort
	}
	if c.DataTCPPort == 0 {
		c.DataTCPPort = session.DataTCPPort
	}
	if c.DataUDPPort == 0 {
		c.DataUDPPort = session.DataUDPPort
	}
	if c.NewController == nil {
		c.NewController = func(startKbps float64) ratecontrol.Controller {
			return ratecontrol.NewTFRC(startKbps, 1000, ratecontrol.DefaultLimits())
		}
	}
}

// Server is one streaming-server instance.
type Server struct {
	cfg Config

	sessions   map[string]*streamSession // by session ID
	byDataAddr map[string]*streamSession // UDP demux by client data address
	udpPort    session.DataPort
	stops      []func()
	nextID     int

	// sessFree recycles streamSession objects: removeSession pushes,
	// newStreamSession pops. A recycled session keeps its map storage, FEC
	// scratch and packet arena so steady-state churn stops allocating;
	// packets of its last playout still on the wire find the arena there.
	sessFree []*streamSession

	// descBody is each clip's DESCRIBE body, rendered once by New: a clip is
	// immutable, so every response to a DESCRIBE of it shares these bytes,
	// and nothing downstream may write through Message.Body (the player and a
	// shard-transit copy both copy it out).
	descBody map[*media.Clip][]byte

	// ctlConns tracks every accepted control connection so a world checkpoint
	// can enumerate them — a control connection between sessions (after a
	// DESCRIBE, or between playlist entries) is reachable from nowhere else.
	// Closed, unreferenced entries are swept lazily as the list grows.
	ctlConns []*controlConn

	// pendingData tracks accepted TCP data connections whose DataHello has
	// not arrived yet: no session references them until the hello binds them.
	pendingData []transport.Conn

	// Counters for Figure 10 and diagnostics.
	describes   uint64
	unavailable uint64
	played      uint64
	tornDown    uint64
}

// New builds a Server with SureStream and FEC enabled unless the caller
// turned them off explicitly after construction via the Config it passed.
func New(cfg Config) *Server {
	cfg.fillDefaults()
	s := &Server{
		cfg:        cfg,
		sessions:   make(map[string]*streamSession),
		byDataAddr: make(map[string]*streamSession),
		descBody:   make(map[*media.Clip][]byte, len(cfg.Library.Clips)),
	}
	for _, clip := range cfg.Library.Clips {
		s.descBody[clip] = session.DescFromClip(clip).Marshal()
	}
	return s
}

// Start binds the control and data ports.
func (s *Server) Start() error {
	stopCtl, err := s.cfg.Net.ListenTCP(s.cfg.ControlPort, s.acceptControl)
	if err != nil {
		return fmt.Errorf("server: control listen: %w", err)
	}
	s.stops = append(s.stops, stopCtl)
	stopData, err := s.cfg.Net.ListenTCP(s.cfg.DataTCPPort, s.acceptDataTCP)
	if err != nil {
		return fmt.Errorf("server: data listen: %w", err)
	}
	s.stops = append(s.stops, stopData)
	udp, err := s.cfg.Net.ListenUDP(s.cfg.DataUDPPort, s.onUDPData)
	if err != nil {
		return fmt.Errorf("server: udp listen: %w", err)
	}
	s.udpPort = udp
	s.stops = append(s.stops, func() { udp.Close() })
	return nil
}

// Stop tears everything down.
func (s *Server) Stop() {
	for _, stop := range s.stops {
		stop()
	}
	s.stops = nil
	for _, sess := range s.sessions {
		sess.stop()
	}
}

// ActiveSessions is the server's load probe: how many streaming sessions
// are currently open. The least-loaded selection policy polls it when
// choosing a mirror for a new clip request.
func (s *Server) ActiveSessions() int { return len(s.sessions) }

// DropClient reaps every session belonging to a client host that vanished
// without a TEARDOWN — the open-loop churn path, where a departing user's
// host is torn out of the network mid-stream. No RTSP message can arrive
// from a host that no longer exists, so without this an abandoned session
// would pace frames at a dead address forever and permanently inflate the
// ActiveSessions load probe. Returns how many sessions were reaped.
func (s *Server) DropClient(clientHost string) int {
	var doomed []*streamSession
	for _, sess := range s.sessions {
		if addrHost(sess.spec.ClientDataAddr) == clientHost ||
			(sess.cc != nil && addrHost(sess.cc.conn.RemoteAddr()) == clientHost) {
			doomed = append(doomed, sess)
		}
	}
	if len(doomed) == 0 {
		// The common churn case: the departing client tore all its sessions
		// down cleanly. Skip the sort so the per-departure sweep stays
		// allocation-free.
		return 0
	}
	// Stable reap order: stop() can close connections (which sends), and
	// map iteration order must not leak into the packet stream.
	sort.Slice(doomed, func(i, j int) bool { return doomed[i].id < doomed[j].id })
	for _, sess := range doomed {
		sess.stop()
		s.removeSession(sess)
	}
	return len(doomed)
}

// addrHost returns the host component of a "host:port" address ("" in,
// "" out).
func addrHost(addr string) string {
	for i := len(addr) - 1; i >= 0; i-- {
		if addr[i] == ':' {
			return addr[:i]
		}
	}
	return addr
}

// Counters returns (describes, unavailable, played, toredown) counts.
func (s *Server) Counters() (describes, unavailable, played, torndown uint64) {
	return s.describes, s.unavailable, s.played, s.tornDown
}

// acceptControl handles a new RTSP control connection. One control
// connection may carry several sequential sessions (the playlist pattern).
func (s *Server) acceptControl(conn transport.Conn) {
	cc := &controlConn{srv: s, conn: conn}
	conn.SetReceiver(cc.onMessage)
	s.trackControl(cc)
}

// trackControl records a control connection for checkpoint enumeration,
// sweeping closed unreferenced entries when the list has grown well past the
// live session count. The sweep trigger depends only on simulation state, so
// whether a checkpoint is ever taken cannot perturb the run.
func (s *Server) trackControl(cc *controlConn) {
	if len(s.ctlConns) >= 2*len(s.sessions)+64 {
		referenced := make(map[*controlConn]bool, len(s.sessions))
		for _, sess := range s.sessions {
			if sess.cc != nil {
				referenced[sess.cc] = true
			}
		}
		kept := s.ctlConns[:0]
		for _, old := range s.ctlConns {
			if !transport.ConnClosed(old.conn) || referenced[old] {
				kept = append(kept, old)
			}
		}
		for i := len(kept); i < len(s.ctlConns); i++ {
			s.ctlConns[i] = nil
		}
		s.ctlConns = kept
	}
	s.ctlConns = append(s.ctlConns, cc)
}

type controlConn struct {
	srv  *Server
	conn transport.Conn
	sess *streamSession // session most recently SETUP on this connection
}

func (cc *controlConn) reply(m *rtsp.Message) {
	cc.conn.Send(m, m.WireSize())
}

func (cc *controlConn) onMessage(payload any, _ int) {
	req, ok := payload.(*rtsp.Message)
	if !ok || !req.Request {
		return
	}
	s := cc.srv
	switch req.Method {
	case rtsp.MethodOptions:
		resp := rtsp.NewResponse(req, rtsp.StatusOK)
		resp.Set("Public", "DESCRIBE, SETUP, PLAY, PAUSE, TEARDOWN, SET_PARAMETER")
		cc.reply(resp)

	case rtsp.MethodDescribe:
		s.describes++
		clip := s.cfg.Library.Lookup(req.URL)
		if clip == nil {
			cc.reply(rtsp.NewResponse(req, rtsp.StatusNotFound))
			return
		}
		if s.cfg.Rand.Float64() < s.cfg.Unavailability {
			s.unavailable++
			cc.reply(rtsp.NewResponse(req, rtsp.StatusUnavailable))
			return
		}
		resp := rtsp.NewResponse(req, rtsp.StatusOK)
		resp.Body = s.descBody[clip]
		cc.reply(resp)

	case rtsp.MethodSetup:
		clip := s.cfg.Library.Lookup(req.URL)
		if clip == nil {
			cc.reply(rtsp.NewResponse(req, rtsp.StatusNotFound))
			return
		}
		spec, err := rtsp.ParseTransport(req.Get("Transport"))
		if err != nil {
			cc.reply(rtsp.NewResponse(req, rtsp.StatusInternalError))
			return
		}
		maxKbps := float64(req.GetInt("Bandwidth", 300))
		s.nextID++
		id := "sess-" + strconv.Itoa(s.nextID)
		sess := newStreamSession(s, id, clip, spec, maxKbps, cc)
		s.sessions[id] = sess
		cc.sess = sess
		if spec.Protocol == "udp" && spec.ClientDataAddr != "" {
			s.byDataAddr[spec.ClientDataAddr] = sess
		}
		resp := rtsp.NewResponse(req, rtsp.StatusOK)
		resp.Set("Session", id)
		out := rtsp.TransportSpec{Protocol: spec.Protocol}
		if spec.Protocol == "udp" {
			out.ServerDataAddr = s.udpPort.LocalAddr()
		} else {
			out.ServerDataAddr = s.cfg.Net.Addr(s.cfg.DataTCPPort)
		}
		resp.Set("Transport", out.Format())
		cc.reply(resp)

	case rtsp.MethodPlay:
		sess := s.lookupSession(req, cc)
		if sess == nil {
			cc.reply(rtsp.NewResponse(req, rtsp.StatusNotFound))
			return
		}
		sess.play()
		s.played++
		cc.reply(rtsp.NewResponse(req, rtsp.StatusOK))

	case rtsp.MethodPause:
		sess := s.lookupSession(req, cc)
		if sess == nil {
			cc.reply(rtsp.NewResponse(req, rtsp.StatusNotFound))
			return
		}
		sess.pause()
		cc.reply(rtsp.NewResponse(req, rtsp.StatusOK))

	case rtsp.MethodTeardown:
		sess := s.lookupSession(req, cc)
		if sess != nil {
			sess.stop()
			s.removeSession(sess)
			s.tornDown++
		}
		cc.reply(rtsp.NewResponse(req, rtsp.StatusOK))

	case rtsp.MethodSetParameter:
		cc.reply(rtsp.NewResponse(req, rtsp.StatusOK))

	default:
		cc.reply(rtsp.NewResponse(req, rtsp.StatusInternalError))
	}
}

func (s *Server) lookupSession(req *rtsp.Message, cc *controlConn) *streamSession {
	if id := req.Get("Session"); id != "" {
		return s.sessions[id]
	}
	return cc.sess
}

func (s *Server) removeSession(sess *streamSession) {
	delete(s.sessions, sess.id)
	// Under churn a client can depart and re-arrive at the same data
	// address while the old session is still timing out; only unmap the
	// address if it still belongs to this session, or the stale teardown
	// would sever the re-arrived client's demux entry.
	if sess.spec.ClientDataAddr != "" && s.byDataAddr[sess.spec.ClientDataAddr] == sess {
		delete(s.byDataAddr, sess.spec.ClientDataAddr)
	}
	// Unhook the control connection's convenience pointer before recycling,
	// or a session-header-less request on the old connection could reach a
	// session that now belongs to a different client.
	if sess.cc != nil && sess.cc.sess == sess {
		sess.cc.sess = nil
	}
	// Nothing reads the session after this — no NACK reaches it, no snapshot
	// walks it — so the retransmit window's references on pooled packets end
	// here.
	for _, d := range sess.sentVideo.Each {
		sess.arena.Drop(d)
	}
	sess.sentVideo.Reset()
	s.sessFree = append(s.sessFree, sess)
}

// acceptDataTCP waits for the DataHello that binds a data connection to its
// session.
func (s *Server) acceptDataTCP(conn transport.Conn) {
	s.watchPendingData(conn)
}

// watchPendingData installs the hello-waiting receiver on a data connection
// and tracks it until the hello binds it to a session — the shared path of
// accept and checkpoint restore.
func (s *Server) watchPendingData(conn transport.Conn) {
	kept := s.pendingData[:0]
	for _, c := range s.pendingData {
		if !transport.ConnClosed(c) {
			kept = append(kept, c)
		}
	}
	for i := len(kept); i < len(s.pendingData); i++ {
		s.pendingData[i] = nil
	}
	s.pendingData = append(kept, conn)
	conn.SetReceiver(func(payload any, size int) {
		switch m := payload.(type) {
		case *session.DataHello:
			s.untrackPendingData(conn)
			sess, ok := s.sessions[m.SessionID]
			if !ok {
				conn.Close()
				return
			}
			sess.bindTCPData(conn)
		case *rdt.Packet:
			// Feedback on an already-bound connection is routed by the
			// receiver installed in bindTCPData; a packet here means the
			// hello never arrived.
		}
	})
}

func (s *Server) untrackPendingData(conn transport.Conn) {
	for i, c := range s.pendingData {
		if c == conn {
			s.pendingData = append(s.pendingData[:i], s.pendingData[i+1:]...)
			return
		}
	}
}

// onUDPData demultiplexes datagrams from clients (reports, buffer state) to
// their sessions by source address.
func (s *Server) onUDPData(from string, payload any, _ int) {
	sess, ok := s.byDataAddr[from]
	if !ok {
		return
	}
	pkt, ok := payload.(*rdt.Packet)
	if !ok {
		return
	}
	sess.onFeedback(pkt)
}
