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
	"slices"
	"strconv"
	"strings"

	"realtracer/internal/media"
	"realtracer/internal/netsim"
	"realtracer/internal/ratecontrol"
	"realtracer/internal/rdt"
	"realtracer/internal/rtsp"
	"realtracer/internal/session"
	"realtracer/internal/simclock"
	"realtracer/internal/transport"
)

// Config parameterizes a Server.
type Config struct {
	Clock   *simclock.Clock
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
	// ControlPort etc. default to the session package's well-known ports.
	ControlPort, DataTCPPort, DataUDPPort int
	// Arena backs every packet struct the server's sessions send (Data,
	// Repair, EOS, retransmissions) and every RTSP reply; each cell comes
	// back to it when its reader releases it. A world passes its shard's;
	// nil means a private one.
	Arena *rdt.Arena
}

func (c *Config) fillDefaults() {
	if c.ControlPort == 0 {
		c.ControlPort = session.ControlPort
	}
	if c.DataTCPPort == 0 {
		c.DataTCPPort = session.DataTCPPort
	}
	if c.DataUDPPort == 0 {
		c.DataUDPPort = session.DataUDPPort
	}
	if c.Arena == nil {
		c.Arena = new(rdt.Arena)
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
	// newStreamSession pops. A recycled session keeps its map storage and
	// retransmit ring so steady-state churn stops allocating.
	sessFree []*streamSession

	// setupTransport is the Transport value of every SETUP reply, by protocol
	// (tcp, udp): the server's data addresses never change, so each is
	// rendered on the first SETUP that asks for it.
	setupTransport [2]string

	// watchFree holds the DataHello watchers no connection is using.
	watchFree []*dataWatcher

	// doomed is DropClient's scratch.
	doomed []*streamSession

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
	return &Server{
		cfg:        cfg,
		sessions:   make(map[string]*streamSession),
		byDataAddr: make(map[string]*streamSession),
	}
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
	doomed := s.doomed[:0]
	for _, sess := range s.sessions {
		if netsim.Addr(sess.spec.ClientDataAddr).Host() == clientHost ||
			(sess.cc != nil && netsim.Addr(sess.cc.conn.RemoteAddr()).Host() == clientHost) {
			doomed = append(doomed, sess)
		}
	}
	// Stable reap order: stop() can close connections (which sends), and
	// map iteration order must not leak into the packet stream.
	slices.SortFunc(doomed, func(a, b *streamSession) int { return strings.Compare(a.id, b.id) })
	for _, sess := range doomed {
		sess.stop()
		s.removeSession(sess)
	}
	clear(doomed)
	s.doomed = doomed[:0]
	return len(doomed)
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
}

type controlConn struct {
	srv  *Server
	conn transport.Conn
	sess *streamSession // session most recently SETUP on this connection
}

// respond leases a reply to req from the server's arena.
func (cc *controlConn) respond(req *rtsp.Message, status int) *rtsp.Message {
	return cc.srv.cfg.Arena.Messages().Response(req, status)
}

func (cc *controlConn) send(m *rtsp.Message) {
	cc.conn.Send(m, m.WireSize())
}

// reply sends a reply to req that carries nothing but its status.
func (cc *controlConn) reply(req *rtsp.Message, status int) {
	cc.send(cc.respond(req, status))
}

// onMessage serves one request. The request is the transport's: it may go
// back to its pool as soon as this returns, so nothing here keeps it or a
// slice of it.
func (cc *controlConn) onMessage(payload any, _ int) {
	req, ok := payload.(*rtsp.Message)
	if !ok || !req.Request {
		return
	}
	s := cc.srv
	switch req.Method {
	case rtsp.MethodOptions:
		resp := cc.respond(req, rtsp.StatusOK)
		resp.Set("Public", "DESCRIBE, SETUP, PLAY, PAUSE, TEARDOWN, SET_PARAMETER")
		cc.send(resp)

	case rtsp.MethodDescribe:
		s.describes++
		clip := s.cfg.Library.Lookup(req.URL)
		if clip == nil {
			cc.reply(req, rtsp.StatusNotFound)
			return
		}
		if s.cfg.Rand.Float64() < s.cfg.Unavailability {
			s.unavailable++
			cc.reply(req, rtsp.StatusUnavailable)
			return
		}
		resp := cc.respond(req, rtsp.StatusOK)
		resp.Body = clip.Described(describe)
		cc.send(resp)

	case rtsp.MethodSetup:
		clip := s.cfg.Library.Lookup(req.URL)
		if clip == nil {
			cc.reply(req, rtsp.StatusNotFound)
			return
		}
		spec, err := rtsp.ParseTransport(req.Get("Transport"))
		if err != nil {
			cc.reply(req, rtsp.StatusInternalError)
			return
		}
		maxKbps := 300
		if v := req.Get("Bandwidth"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				cc.reply(req, rtsp.StatusBadRequest)
				return
			}
			maxKbps = n
		}
		// A client streams to its own host: a data address on any other
		// would take over the session that address already indexes.
		if spec.Protocol == "udp" && spec.ClientDataAddr != "" &&
			netsim.Addr(spec.ClientDataAddr).Host() != netsim.Addr(cc.conn.RemoteAddr()).Host() {
			cc.reply(req, rtsp.StatusBadRequest)
			return
		}
		s.nextID++
		id := "sess-" + strconv.Itoa(s.nextID)
		sess := newStreamSession(s, id, clip, spec, float64(maxKbps), cc)
		s.sessions[id] = sess
		cc.sess = sess
		if spec.Protocol == "udp" && spec.ClientDataAddr != "" {
			s.byDataAddr[spec.ClientDataAddr] = sess
		}
		resp := cc.respond(req, rtsp.StatusOK)
		resp.Set("Session", id)
		resp.Set("Transport", s.transportFor(spec.Protocol))
		cc.send(resp)

	case rtsp.MethodPlay, rtsp.MethodPause, rtsp.MethodTeardown:
		cc.reply(req, s.control(req, cc))

	case rtsp.MethodSetParameter:
		cc.reply(req, rtsp.StatusOK)

	default:
		cc.reply(req, rtsp.StatusInternalError)
	}
}

// describe renders a clip's DESCRIBE body. The clip keeps the first
// rendering (media.Clip.Described), so the bytes are rendered only the first
// time the clip is described anywhere (under pinned selection most of a
// replicated library never is), and every response shares them: nothing
// downstream may write through Message.Body (the player and a shard-transit
// copy both copy it out).
func describe(clip *media.Clip) []byte { return session.DescFromClip(clip).Marshal() }

// control runs a PLAY, PAUSE or TEARDOWN and returns its reply's status. A
// TEARDOWN of a session that is gone already succeeds.
func (s *Server) control(req *rtsp.Message, cc *controlConn) int {
	sess, foreign := s.lookupSession(req, cc)
	switch {
	case foreign:
		return rtsp.StatusSessionNotFound
	case sess == nil && req.Method == rtsp.MethodTeardown:
		return rtsp.StatusOK
	case sess == nil:
		return rtsp.StatusNotFound
	}
	switch req.Method {
	case rtsp.MethodPlay:
		sess.play()
		s.played++
	case rtsp.MethodPause:
		sess.pause()
	default:
		sess.stop()
		s.removeSession(sess)
		s.tornDown++
	}
	return rtsp.StatusOK
}

// transportFor is the Transport value of a SETUP reply for proto, "tcp" or
// "udp": the protocol and the server's data address for it.
func (s *Server) transportFor(proto string) string {
	i := 0
	if proto == "udp" {
		i = 1
	}
	if s.setupTransport[i] == "" {
		out := rtsp.TransportSpec{Protocol: proto}
		if i == 1 {
			out.ServerDataAddr = s.udpPort.LocalAddr()
		} else {
			out.ServerDataAddr = s.cfg.Net.Addr(s.cfg.DataTCPPort)
		}
		s.setupTransport[i] = out.Format()
	}
	return s.setupTransport[i]
}

// lookupSession finds the session req's Session header names, or the conn's
// most recent SETUP when it names none. A session is its own control conn's
// to play, pause and tear down: one set up on another conn is reported
// foreign, and not returned. The conns are compared, not their controlConns,
// because a restored session gets a controlConn of its own.
func (s *Server) lookupSession(req *rtsp.Message, cc *controlConn) (sess *streamSession, foreign bool) {
	id := req.Get("Session")
	if id == "" {
		return cc.sess, false
	}
	sess = s.sessions[id]
	if sess != nil && (sess.cc == nil || sess.cc.conn != cc.conn) {
		return nil, true
	}
	return sess, false
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
	sess.sentVideo.Reset()
	s.sessFree = append(s.sessFree, sess)
}

// dataWatcher waits on one accepted TCP data connection for the DataHello
// that binds it to its session. Watchers are leased from the server's
// free-list with their receiver bound once, and go back when the hello
// arrives; one whose connection closes first is left to the garbage collector.
type dataWatcher struct {
	srv  *Server
	conn transport.Conn
	recv func(any, int) // w.onHello
}

// acceptDataTCP installs the hello-waiting receiver on a new data connection.
func (s *Server) acceptDataTCP(conn transport.Conn) {
	var w *dataWatcher
	if k := len(s.watchFree) - 1; k >= 0 {
		w, s.watchFree = s.watchFree[k], s.watchFree[:k]
	} else {
		w = &dataWatcher{srv: s}
		w.recv = w.onHello
	}
	w.conn = conn
	conn.SetReceiver(w.recv)
}

// onHello binds the watched connection to the session its hello names, or
// closes it when there is none. Anything else arriving first — feedback,
// which bindTCPData's receiver routes once the hello is in — is ignored.
func (w *dataWatcher) onHello(payload any, _ int) {
	m, ok := payload.(*session.DataHello)
	if !ok {
		return
	}
	// The watcher goes back to the free-list, its connection delivering to it
	// no more: a real socket's reads already queued for the loop must find no
	// receiver, not the watcher's next connection.
	s, conn := w.srv, w.conn
	conn.SetReceiver(nil)
	w.conn = nil
	s.watchFree = append(s.watchFree, w)
	sess, ok := s.sessions[m.SessionID]
	if !ok {
		conn.Close()
		return
	}
	sess.bindTCPData(conn)
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
