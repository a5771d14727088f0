package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"realtracer/internal/netsim"
	"realtracer/internal/packet"
	"realtracer/internal/simclock"
)

// Codec converts session-layer payloads to and from bytes for the real
// socket adapters. The simulator skips serialization (payloads travel by
// reference), so only live mode needs a Codec; internal/session provides the
// canonical one combining RTSP control and RDT data. EncodeTo appends a frame
// to a caller-owned packet.Writer, so each real socket keeps one encode
// buffer for its lifetime instead of allocating per send.
type Codec interface {
	EncodeTo(w *packet.Writer, payload any) error
	Decode(data []byte) (any, error)
}

// liveSock is the core every live socket adapter embeds: the socket, its
// codec and loop, one encode buffer for the socket's lifetime, the closed
// flag and the receiver. It ends a payload's lease on every send and runs
// the receiver on the loop, so the engines above stay single-threaded. An
// adapter adds only how it frames a write and how its reader finds frames.
type liveSock struct {
	sock interface {
		Close() error
		LocalAddr() net.Addr
	}
	codec Codec
	loop  *simclock.Loop

	enc sync.Mutex // guards w; held across a write, which Close may race
	w   *packet.Writer

	mu     sync.Mutex
	recv   func(from net.Addr, payload any, size int)
	closed bool
}

// send encodes payload behind prefix reserved bytes of the encode buffer
// and hands the frame to write. The declared size is ignored: the encoded
// length is authoritative on a real wire, where the encoded frame is the
// payload's last reader, so a pooled payload's lease ends here, error or not.
func (s *liveSock) send(payload any, prefix int, write func(frame []byte) error) error {
	defer netsim.ReleaseTransit(nil, payload)
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return ErrClosed
	}
	s.enc.Lock()
	defer s.enc.Unlock()
	if s.w == nil {
		s.w = packet.NewWriter(2048)
	}
	s.w.Reset()
	for range prefix {
		s.w.U8(0)
	}
	if err := s.codec.EncodeTo(s.w, payload); err != nil {
		return err
	}
	return write(s.w.Bytes())
}

// post decodes one frame on the reader goroutine and runs the receiver on
// the loop. An undecodable frame is skipped: the framing around it is intact.
func (s *liveSock) post(from net.Addr, frame []byte) {
	payload, err := s.codec.Decode(frame)
	if err != nil {
		return
	}
	size := len(frame)
	s.loop.Post(func() {
		s.mu.Lock()
		fn := s.recv
		s.mu.Unlock()
		if fn != nil {
			fn(from, payload, size)
		}
	})
}

// readDatagrams posts every datagram pc reads until it is closed. Any other
// read error leaves the socket usable: on Linux a connected socket reports
// an ICMP port-unreachable for an earlier datagram as ECONNREFUSED, and the
// peer may bind the port later.
func (s *liveSock) readDatagrams(pc net.PacketConn) {
	buf := make([]byte, 64*1024)
	for {
		n, from, err := pc.ReadFrom(buf)
		if err == nil {
			s.post(from, buf[:n])
		} else if errors.Is(err, net.ErrClosed) {
			return
		}
	}
}

// SetReceiver implements Conn.
func (s *liveSock) SetReceiver(fn func(any, int)) {
	var recv func(net.Addr, any, int)
	if fn != nil {
		recv = func(_ net.Addr, payload any, size int) { fn(payload, size) }
	}
	s.mu.Lock()
	s.recv = recv
	s.mu.Unlock()
}

// Close implements Conn.
func (s *liveSock) Close() error {
	s.mu.Lock()
	closed := s.closed
	s.closed = true
	s.mu.Unlock()
	if closed {
		return nil
	}
	return s.sock.Close()
}

// LocalAddr implements Conn.
func (s *liveSock) LocalAddr() string { return s.sock.LocalAddr().String() }

// maxFrame bounds a length-prefixed TCP frame; anything larger indicates a
// corrupted stream.
const maxFrame = 1 << 20

// RealTCPConn adapts a net.Conn (stream) to the message Conn interface using
// 4-byte big-endian length-prefixed frames.
type RealTCPConn struct {
	liveSock
	c   net.Conn
	rtt time.Duration
}

// testHookHandOver, when a test sets it, runs on the goroutine that made a
// conn just before the conn is posted to its owner.
var testHookHandOver func()

// handOver wraps an established net.Conn and runs owner on the loop, then
// starts the conn's reader there: a frame read before its owner had bound a
// receiver would be dropped.
func handOver(c net.Conn, codec Codec, loop *simclock.Loop, rtt time.Duration, owner func(*RealTCPConn)) {
	rc := &RealTCPConn{liveSock: liveSock{sock: c, codec: codec, loop: loop}, c: c, rtt: rtt}
	if testHookHandOver != nil {
		testHookHandOver()
	}
	loop.Post(func() {
		owner(rc)
		go rc.readLoop()
	})
}

// DialRealTCP connects to addr on a goroutine of its own and runs cb on the
// loop with the conn or the dial error; the conn starts reading once cb has
// run. The handshake time seeds the RTT estimate.
func DialRealTCP(addr string, codec Codec, loop *simclock.Loop, cb func(*RealTCPConn, error)) {
	go func() {
		start := time.Now()
		c, err := net.DialTimeout("tcp", addr, dialTimeout)
		if err != nil {
			loop.Post(func() { cb(nil, err) })
			return
		}
		handOver(c, codec, loop, time.Since(start), func(rc *RealTCPConn) { cb(rc, nil) })
	}()
}

// ListenRealTCP accepts connections on addr, invoking accept (on the loop)
// for each; a conn starts reading once accept has run. Close the returned
// listener to stop.
func ListenRealTCP(addr string, codec Codec, loop *simclock.Loop, accept func(*RealTCPConn)) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			handOver(c, codec, loop, 0, accept)
		}
	}()
	return ln, nil
}

// readLoop posts every length-prefixed frame; a stream that ends, or whose
// framing breaks, closes the conn.
func (rc *RealTCPConn) readLoop() {
	defer rc.Close()
	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(rc.c, lenBuf[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n > maxFrame {
			return
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(rc.c, buf); err != nil {
			return
		}
		rc.post(nil, buf)
	}
}

// Send implements Conn. The 4-byte length prefix is reserved up front and
// patched in, so the whole frame goes out as one Write from the encode
// buffer.
func (rc *RealTCPConn) Send(payload any, _ int) error {
	return rc.send(payload, 4, func(frame []byte) error {
		n := len(frame) - 4
		if n > maxFrame {
			return fmt.Errorf("transport: frame too large: %d", n)
		}
		binary.BigEndian.PutUint32(frame, uint32(n))
		_, err := rc.c.Write(frame)
		return err
	})
}

// Protocol implements Conn.
func (rc *RealTCPConn) Protocol() Protocol { return TCP }

// RemoteAddr implements Conn.
func (rc *RealTCPConn) RemoteAddr() string { return rc.c.RemoteAddr().String() }

// RTT implements Conn.
func (rc *RealTCPConn) RTT() time.Duration { return rc.rtt }

// RealUDPPort is an unconnected UDP socket usable as a server data port.
type RealUDPPort struct {
	liveSock
	pc net.PacketConn
}

// ListenRealUDP binds a UDP socket on addr. recv runs on the loop for every
// decodable datagram.
func ListenRealUDP(addr string, codec Codec, loop *simclock.Loop, recv func(from string, payload any, size int)) (*RealUDPPort, error) {
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, err
	}
	p := &RealUDPPort{liveSock: liveSock{sock: pc, codec: codec, loop: loop}, pc: pc}
	p.recv = func(from net.Addr, payload any, size int) { recv(from.String(), payload, size) }
	go p.readDatagrams(pc)
	return p, nil
}

// ConnFor returns a send-only Conn view of the port talking to raddr,
// mirroring UDPPort.ConnFor for the simulator. The address is resolved once,
// here: if it does not resolve, every Send returns that error.
func (p *RealUDPPort) ConnFor(raddr string) Conn {
	to, err := net.ResolveUDPAddr("udp", raddr)
	return &realUDPPortConn{port: p, raddr: raddr, to: to, err: err}
}

type realUDPPortConn struct {
	port  *RealUDPPort
	raddr string
	to    *net.UDPAddr
	err   error // from resolving raddr
}

func (c *realUDPPortConn) Send(payload any, _ int) error {
	return c.port.send(payload, 0, func(frame []byte) error {
		if c.err != nil {
			return c.err
		}
		_, err := c.port.pc.WriteTo(frame, c.to)
		return err
	})
}
func (c *realUDPPortConn) SetReceiver(func(any, int)) {
	panic("transport: SetReceiver on server-side UDP conn; demux at the port")
}
func (c *realUDPPortConn) Close() error       { return nil }
func (c *realUDPPortConn) Protocol() Protocol { return UDP }
func (c *realUDPPortConn) LocalAddr() string  { return c.port.LocalAddr() }
func (c *realUDPPortConn) RemoteAddr() string { return c.raddr }
func (c *realUDPPortConn) RTT() time.Duration { return 0 }

// RealUDPConn is a connected client-side UDP conn.
type RealUDPConn struct {
	liveSock
	c *net.UDPConn
}

// DialRealUDP "connects" a UDP socket to addr and starts its reader. The
// reader runs the receiver on the loop, reading it when the datagram's turn
// comes, so an owner that dials on the loop and binds its receiver before
// returning to it hears every datagram, the ones read before it bound too.
func DialRealUDP(addr string, codec Codec, loop *simclock.Loop) (*RealUDPConn, error) {
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	c, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, err
	}
	rc := &RealUDPConn{liveSock: liveSock{sock: c, codec: codec, loop: loop}, c: c}
	go rc.readDatagrams(c)
	return rc, nil
}

// Send implements Conn.
func (rc *RealUDPConn) Send(payload any, _ int) error {
	return rc.send(payload, 0, func(frame []byte) error {
		_, err := rc.c.Write(frame)
		return err
	})
}

// Protocol implements Conn.
func (rc *RealUDPConn) Protocol() Protocol { return UDP }

// RemoteAddr implements Conn.
func (rc *RealUDPConn) RemoteAddr() string { return rc.c.RemoteAddr().String() }

// RTT implements Conn.
func (rc *RealUDPConn) RTT() time.Duration { return 0 }

var _ Conn = (*RealTCPConn)(nil)
var _ Conn = (*RealUDPConn)(nil)
