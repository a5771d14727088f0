// Package transport provides the two transports the study observed under
// RealVideo sessions — TCP and UDP — over the netsim virtual network, plus
// adapters over real OS sockets (real.go) so the same server and player code
// runs live on localhost.
//
// The simulated TCP models what matters for streaming performance: slow
// start and AIMD congestion avoidance, fast retransmit on triple duplicate
// ACKs, retransmission timeouts, and strictly in-order delivery (head-of-
// line blocking), which is what differentiates TCP's jitter profile from
// UDP's in Figures 17/18/24. The simulated UDP is fire-and-forget; loss and
// reordering come from the network, and responsiveness comes from the
// application-layer rate controller (internal/ratecontrol), as with
// RealNetworks' own UDP transport.
package transport

import (
	"errors"
	"slices"
	"strconv"
	"time"

	"realtracer/internal/lease"
	"realtracer/internal/netsim"
	"realtracer/internal/simclock"
)

// Protocol labels the transport actually used for the data connection — the
// quantity broken down in Figure 16.
type Protocol int

const (
	TCP Protocol = iota
	UDP
)

// String implements fmt.Stringer using the paper's labels.
func (p Protocol) String() string {
	if p == TCP {
		return "TCP"
	}
	return "UDP"
}

// Conn is a message-oriented bidirectional channel. Implementations deliver
// opaque payloads with an associated wire size; the session layer supplies
// meaning (RTSP control or RDT data).
type Conn interface {
	// Send queues payload for transmission; size is the payload's wire size
	// in bytes (transport framing overhead is added internally). Send takes
	// over the caller's lease on a pooled payload, error or not: the
	// transport releases it when its last reader is done (transit.go), so a
	// caller that reads it afterwards holds a reference of its own first.
	Send(payload any, size int) error
	// SetReceiver installs the delivery callback. Must be set before data
	// arrives; replacing it is allowed.
	SetReceiver(fn func(payload any, size int))
	// Close tears the connection down. Further Sends fail.
	Close() error
	// Protocol reports TCP or UDP.
	Protocol() Protocol
	// LocalAddr and RemoteAddr identify the endpoints.
	LocalAddr() string
	RemoteAddr() string
	// RTT returns the smoothed round-trip estimate, or 0 when unknown
	// (e.g. a UDP conn before any feedback).
	RTT() time.Duration
}

// ErrClosed is returned by Send after Close.
var ErrClosed = errors.New("transport: connection closed")

// ErrSendBufferFull is returned by a simulated TCP conn's Send when the conn
// already holds seqwin.MaxSpan unacknowledged messages: a full socket.
var ErrSendBufferFull = errors.New("transport: send buffer full")

// ErrTimeout is reported to Dial callbacks when the peer never answers.
var ErrTimeout = errors.New("transport: connect timeout")

const (
	segHeader   = 40 // TCP/IP header overhead per segment
	udpHeader   = 28 // UDP/IP header overhead per datagram
	ackSize     = segHeader
	maxSegment  = 1460 // MSS; callers keep messages under this
	initialRTO  = 1 * time.Second
	minRTO      = 200 * time.Millisecond
	maxRTO      = 30 * time.Second
	dialTimeout = 10 * time.Second
	rwndSegs    = 64 // receiver window, segments
)

// Stack is the per-host transport endpoint factory. One Stack per netsim
// host. The stack interns its host name once, and each connection resolves
// its remote host once at creation, so the per-packet path hands netsim
// pre-resolved IDs instead of strings.
type Stack struct {
	net     *netsim.Network
	clock   *simclock.Clock
	host    string
	hostID  netsim.HostID
	next    int       // the last ephemeral port handed out
	ackFree []*tcpAck // recycled ACKs (released by whoever reads them last)
	// segs is the segment pool every conn of this host leases from
	// (transit.go).
	segs lease.Pool[tcpSeg]
	// connFree is the storage closed conns of this host left behind
	// (simTCP.teardown) for the next ones to start on (newSimTCPConn).
	connFree []tcpStore
	// listeners tracks live TCP listeners by port. Their accept tables are
	// the one record of the conns this stack accepted, and a world checkpoint
	// walks them (checkpoint.go).
	listeners map[int]*tcpListener
	// dials holds the in-flight DialTCP handshakes in issue order. The stack
	// is their owner in a world checkpoint: the caller that asked for a dial
	// may have moved on (an aborted player), but its timers still fire.
	dials []*tcpDial
}

// tcpStore is a closed conn's send and reorder rings, every slot cleared:
// capacity, nothing else.
type tcpStore struct {
	send, reorder []*tcpSeg
}

// endpoint is one end of a conn, resolved once so the per-packet path hands
// netsim IDs and ports instead of strings: the address, its host's interned ID
// (zero: netsim resolves it by name) and its port, pre-parsed (zero: delivery
// falls back from the dense port table to the address map).
type endpoint struct {
	addr netsim.Addr
	id   netsim.HostID
	port int32
}

// endpoint resolves addr, interning its host.
func (s *Stack) endpoint(addr netsim.Addr) endpoint {
	return endpoint{addr, s.net.Intern(addr.Host()), addr.Port()}
}

// peerOf is the endpoint a delivered packet came from, as netsim resolved it.
func peerOf(pkt *netsim.Packet) endpoint {
	e := endpoint{pkt.From, pkt.FromID, pkt.FromPort}
	if e.port == 0 {
		e.port = pkt.From.Port()
	}
	return e
}

// tcpListener is the per-port accept state: the SYN-dedup map that makes a
// retried SYN from the same client reuse the existing conn instead of
// forking a fresh server-side session. A conn leaves it when it closes
// (simTCP.teardown): client ports never repeat, so nothing else would. accept
// is the callback Listen was given; a restored conn is handed to it again.
type tcpListener struct {
	seen   map[netsim.Addr]*simTCP
	accept func(Conn)
}

// firstEphemeral is where a host's ephemeral port counter starts: its first
// conn gets the port after it.
const firstEphemeral = 10000

// NewStack binds a stack to a host previously added to the network.
func NewStack(n *netsim.Network, host string) *Stack {
	s := &Stack{net: n, clock: n.Clock, listeners: make(map[int]*tcpListener)}
	s.Rebind(host, 0)
	return s
}

// Rebind moves the stack to host, which has handed out ports ephemeral ports
// before: an open-loop world leases one client stack to whichever template
// arrives next. Ports advance per host name, so every address is the one a
// stack of the host's own would give. The stack must hold nothing of its
// previous host: no dial in flight, no conn open.
func (s *Stack) Rebind(host string, ports int) {
	s.host, s.hostID, s.next = host, s.net.Intern(host), firstEphemeral+ports
}

// Ports reports how many ephemeral ports the stack's host has handed out.
func (s *Stack) Ports() int { return s.next - firstEphemeral }

// ackFreeMax bounds a stack's ACK free-list; anything beyond it goes to the
// garbage collector instead of pinning memory for the world's lifetime.
const ackFreeMax = 256

// getAck draws an ACK from the stack free-list. The ACK remembers its
// origin so its last reader can hand it back to the pool it came from —
// recycling into the consumer's own pool would grow the data sender's
// free-list by one ACK per delivered segment while the ACK-sending side
// never got a single one back.
func (s *Stack) getAck() *tcpAck {
	if k := len(s.ackFree); k > 0 {
		a := s.ackFree[k-1]
		s.ackFree = s.ackFree[:k-1]
		a.leased = true
		return a
	}
	return &tcpAck{origin: s, leased: true}
}

// sendPooled ships one pooled packet between pre-resolved endpoints.
func (s *Stack) sendPooled(from, to endpoint, size int, payload any) {
	pkt := s.net.Obtain()
	pkt.From, pkt.To = from.addr, to.addr
	pkt.FromID, pkt.ToID = from.id, to.id
	pkt.FromPort, pkt.ToPort = from.port, to.port
	pkt.Size = size
	pkt.Payload = payload
	s.net.Send(pkt)
}

// Host returns the host name the stack is bound to.
func (s *Stack) Host() string { return s.host }

// DialsInFlight reports how many DialTCP handshakes are neither established
// nor timed out yet.
func (s *Stack) DialsInFlight() int { return len(s.dials) }

func (s *Stack) ephemeral() endpoint {
	s.next++
	return s.addr(s.next)
}

// addr is the stack's own endpoint on port: "host:port" rendered in a stack
// buffer, so the address costs the one allocation that keeps it.
func (s *Stack) addr(port int) endpoint {
	var buf [64]byte
	b := append(append(buf[:0], s.host...), ':')
	return endpoint{netsim.Addr(strconv.AppendInt(b, int64(port), 10)), s.hostID, int32(port)}
}

// control messages exchanged by the simulated TCP machinery.
type tcpSeg struct {
	conn    *simTCP // sender's conn identity, used to route to the peer conn
	syn     bool
	synAck  bool
	fin     bool
	seq     uint64
	payload any
	size    int
	ts      time.Duration // sender timestamp for RTT sampling
	rexmit  bool
	transit bool // true on a leased shard-transit copy; false on originals
	// holds counts the readers an original still has (transit.go): the send
	// buffer, until the cumulative ACK passes the segment or the conn closes,
	// and one per copy on the wire or in the peer's reorder buffer.
	holds int32
}

type tcpAck struct {
	cumAck  uint64 // next expected seq
	ts      time.Duration
	echoOK  bool
	origin  *Stack // free-list this ACK recycles to; nil on a copy or a restored ACK
	transit bool   // true on a leased shard-transit copy; false on originals
	leased  bool   // an original out of its free-list: releasing it twice panics
}

// Listen installs a TCP listener on port. For every handshake the accept
// callback is invoked with the server-side Conn — at SYN time, so the
// session layer can attach its receiver before any data flows. It returns a
// function that stops the listener.
func (s *Stack) Listen(port int, accept func(Conn)) (stop func()) {
	laddr := s.addr(port).addr
	// Retried SYNs from the same client must reuse the existing conn, or
	// each retry would fork a fresh server-side session.
	l := &tcpListener{seen: make(map[netsim.Addr]*simTCP), accept: accept}
	s.listeners[port] = l
	s.net.Register(laddr, func(pkt *netsim.Packet) {
		// The listener consumes everything it receives synchronously, so it
		// is released on every exit: a SYN carries no reference but the
		// wire's, and this frees it.
		defer s.net.ReleaseTransit(pkt.Payload)
		seg, ok := pkt.Payload.(*tcpSeg)
		if !ok || !seg.syn {
			return
		}
		if c, dup := l.seen[pkt.From]; dup && !c.closed {
			c.sendSynAck()
			return
		}
		// The server side answers from a fresh ephemeral port; the client
		// learns the connection's address from the SYN-ACK source.
		c := newSimTCP(s, s.ephemeral(), peerOf(pkt))
		c.established = true
		c.accepted = l
		l.seen[pkt.From] = c
		accept(c)
		c.sendSynAck()
	})
	return func() {
		delete(s.listeners, port)
		s.net.Unregister(laddr)
	}
}

// tcpDial is one in-flight DialTCP: the dialing conn, the caller's
// continuation, and the timers armed at dial time. It stays on the stack's
// dial list until the handshake completes or times out.
type tcpDial struct {
	conn *simTCP
	// cb receives the outcome. It is nil only on a dial restored from a
	// checkpoint that no owner re-attached (ReattachDial): the caller had
	// abandoned it before the checkpoint, so an established conn is closed
	// and a timeout is silent.
	cb      func(Conn, error)
	timeout simclock.Timer
	retries [len(dialRetryAfter)]simclock.Timer
}

// dialRetryAfter is when, after the dial, a SYN is sent again in case the
// first was lost.
var dialRetryAfter = [...]time.Duration{2 * time.Second, 5 * time.Second}

// The dial's timer handlers are the tcpDial itself under distinct named
// types, like the conn's RTO: arming boxes nothing, and the stack walks each
// timer with the handler it was armed with.
type (
	dialTimeoutArm tcpDial
	dialRetryArm   tcpDial
)

func (x *dialTimeoutArm) Fire(time.Duration) { (*tcpDial)(x).finish(ErrTimeout) }
func (x *dialRetryArm) Fire(time.Duration)   { x.conn.sendSyn() }

// DialTCP opens a connection to raddr. cb receives the Conn once the
// handshake completes, or an error on timeout. Lost SYNs are retried twice
// before the dial gives up. It returns the dialing socket's local address,
// which names the dial to ReattachDial after a checkpoint restore.
func (s *Stack) DialTCP(raddr string, cb func(Conn, error)) (laddr string) {
	c := newSimTCP(s, s.ephemeral(), s.endpoint(netsim.Addr(raddr)))
	d := &tcpDial{conn: c, cb: cb}
	// Timeout first, then the retries: the order fixes the events' seqs.
	d.timeout = s.clock.AfterHandler(dialTimeout, (*dialTimeoutArm)(d))
	for i, after := range dialRetryAfter {
		d.retries[i] = s.clock.AfterHandler(after, (*dialRetryArm)(d))
	}
	c.dial = d
	s.dials = append(s.dials, d)
	c.sendSyn()
	return string(c.local.addr)
}

// finish resolves the dial: established when err is nil, timed out
// otherwise. Cancelling every timer and unlisting the dial makes it final.
func (d *tcpDial) finish(err error) {
	c := d.conn
	s := c.stack
	c.dial = nil
	i := slices.Index(s.dials, d)
	s.dials = slices.Delete(s.dials, i, i+1)
	d.timeout.Cancel()
	for _, r := range d.retries {
		r.Cancel()
	}
	switch {
	case err != nil:
		c.teardown()
		if d.cb != nil {
			d.cb(nil, err)
		}
	case d.cb != nil:
		d.cb(c, nil)
	default:
		c.Close()
	}
}

// ListenUDP binds a UDP port. recv is invoked for every datagram with the
// sender's address. The returned port object sends datagrams and can be
// closed.
func (s *Stack) ListenUDP(port int, recv func(from string, payload any, size int)) *UDPPort {
	p := &UDPPort{stack: s, local: s.addr(port)}
	s.net.Register(p.local.addr, func(pkt *netsim.Packet) {
		// recv consumes the datagram synchronously (the receiver contract in
		// each payload package's transit.go), so it is released as soon as
		// recv returns — and on the closed-port drop too. Released
		// explicitly on each exit: this closure runs once per delivered
		// datagram, and a defer is measurable there.
		if !p.closed && recv != nil {
			recv(string(pkt.From), pkt.Payload, pkt.Size-udpHeader)
		}
		s.net.ReleaseTransit(pkt.Payload)
	})
	return p
}

// DialUDP returns a connected UDP Conn bound to an ephemeral local port.
// There is no handshake; the conn is usable immediately.
func (s *Stack) DialUDP(raddr string) Conn {
	return s.newSimUDP(s.ephemeral(), s.endpoint(netsim.Addr(raddr)))
}

// newSimUDP builds a connected UDP conn on an explicit local address — the
// shared path of DialUDP and conn restore.
func (s *Stack) newSimUDP(local, peer endpoint) *simUDP {
	c := &simUDP{stack: s, local: local, peer: peer}
	s.net.Register(local.addr, func(pkt *netsim.Packet) {
		// Same synchronous-consumption contract as ListenUDP: released on
		// every exit, consumed or dropped (explicit, not deferred —
		// per-datagram path).
		if !c.closed && c.recv != nil && pkt.From == c.peer.addr {
			c.recv(pkt.Payload, pkt.Size-udpHeader)
		}
		s.net.ReleaseTransit(pkt.Payload)
	})
	return c
}

// UDPPort is an unconnected UDP endpoint (the server's data port).
type UDPPort struct {
	stack  *Stack
	local  endpoint
	closed bool
}

// LocalAddr returns the bound address.
func (p *UDPPort) LocalAddr() string { return string(p.local.addr) }

// SendTo transmits one datagram to addr. Senders with a stable peer should
// prefer ConnFor, which resolves the destination host once.
func (p *UDPPort) SendTo(addr string, payload any, size int) error {
	if p.closed {
		p.stack.net.ReleaseTransit(payload)
		return ErrClosed
	}
	// The host ID stays zero and netsim finds the host by name: a one-off
	// datagram does not intern it.
	to := netsim.Addr(addr)
	p.stack.sendPooled(p.local, endpoint{addr: to, port: to.Port()}, size+udpHeader, payload)
	return nil
}

// Close unbinds the port.
func (p *UDPPort) Close() error {
	if !p.closed {
		p.closed = true
		p.stack.net.Unregister(p.local.addr)
	}
	return nil
}

// ConnFor returns a Conn view of this port talking to raddr: datagrams sent
// via the Conn originate from the port's address. The destination host is
// resolved once here, so per-packet sends skip the name lookups. Receiving
// still happens through the port's recv callback, so SetReceiver on the
// returned Conn panics; servers demultiplex by sender address instead.
func (p *UDPPort) ConnFor(raddr string) Conn {
	return &udpPortConn{port: p, peer: p.stack.endpoint(netsim.Addr(raddr))}
}

type udpPortConn struct {
	port *UDPPort
	peer endpoint
}

func (c *udpPortConn) Send(payload any, size int) error {
	s := c.port.stack
	if c.port.closed {
		s.net.ReleaseTransit(payload)
		return ErrClosed
	}
	s.sendPooled(c.port.local, c.peer, size+udpHeader, payload)
	return nil
}
func (c *udpPortConn) SetReceiver(func(any, int)) {
	panic("transport: SetReceiver on server-side UDP conn; demux at the port")
}
func (c *udpPortConn) Close() error       { return nil }
func (c *udpPortConn) Protocol() Protocol { return UDP }
func (c *udpPortConn) LocalAddr() string  { return string(c.port.local.addr) }
func (c *udpPortConn) RemoteAddr() string { return string(c.peer.addr) }
func (c *udpPortConn) RTT() time.Duration { return 0 }

// simUDP is the client-side connected UDP conn.
type simUDP struct {
	stack  *Stack
	local  endpoint
	peer   endpoint
	recv   func(any, int)
	closed bool
}

func (c *simUDP) Send(payload any, size int) error {
	if c.closed {
		c.stack.net.ReleaseTransit(payload)
		return ErrClosed
	}
	c.stack.sendPooled(c.local, c.peer, size+udpHeader, payload)
	return nil
}
func (c *simUDP) SetReceiver(fn func(any, int)) { c.recv = fn }
func (c *simUDP) Close() error {
	if !c.closed {
		c.closed = true
		c.stack.net.Unregister(c.local.addr)
	}
	return nil
}
func (c *simUDP) Protocol() Protocol { return UDP }
func (c *simUDP) LocalAddr() string  { return string(c.local.addr) }
func (c *simUDP) RemoteAddr() string { return string(c.peer.addr) }
func (c *simUDP) RTT() time.Duration { return 0 }
