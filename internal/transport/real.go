package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"realtracer/internal/netsim"
	"realtracer/internal/packet"
	"realtracer/internal/vclock"
)

// Codec converts session-layer payloads to and from bytes for the real
// socket adapters. The simulator skips serialization (payloads travel by
// reference), so only live mode needs a Codec; internal/session provides the
// canonical one combining RTSP control and RDT data.
type Codec interface {
	Encode(payload any) ([]byte, error)
	Decode(data []byte) (any, error)
}

// WriterCodec is the recycling fast path: codecs that can append a frame to
// a caller-owned packet.Writer let each real conn keep one encode buffer for
// its lifetime instead of allocating per send. internal/session's Codec
// implements it.
type WriterCodec interface {
	EncodeTo(w *packet.Writer, payload any) error
}

// frameWriter is the per-connection reusable encode buffer, guarded by its
// own mutex because live-mode Sends can race Close.
type frameWriter struct {
	mu sync.Mutex
	w  *packet.Writer
}

// encodeFrame encodes payload via the codec into the recycled buffer with
// prefix bytes reserved at the front, and passes the finished frame to emit
// while the buffer lock is held. Falls back to the allocating Codec path
// when the codec cannot append.
func (fw *frameWriter) encodeFrame(codec Codec, payload any, prefix int, emit func(frame []byte) error) error {
	wc, ok := codec.(WriterCodec)
	if !ok {
		data, err := codec.Encode(payload)
		if err != nil {
			return err
		}
		frame := make([]byte, prefix+len(data))
		copy(frame[prefix:], data)
		return emit(frame)
	}
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if fw.w == nil {
		fw.w = packet.NewWriter(2048)
	}
	fw.w.Reset()
	for i := 0; i < prefix; i++ {
		fw.w.U8(0)
	}
	if err := wc.EncodeTo(fw.w, payload); err != nil {
		return err
	}
	return emit(fw.w.Bytes())
}

// maxFrame bounds a length-prefixed TCP frame; anything larger indicates a
// corrupted stream.
const maxFrame = 1 << 20

// RealTCPConn adapts a net.Conn (stream) to the message Conn interface using
// 4-byte big-endian length-prefixed frames. Incoming messages are posted to
// the supplied Loop so the session engines stay single-threaded.
type RealTCPConn struct {
	c     net.Conn
	codec Codec
	loop  *vclock.Loop
	enc   frameWriter // recycled encode buffer

	mu     sync.Mutex
	recv   func(any, int)
	closed bool
	rtt    time.Duration
}

// NewRealTCPConn wraps an established net.Conn and starts its reader
// goroutine.
func NewRealTCPConn(c net.Conn, codec Codec, loop *vclock.Loop) *RealTCPConn {
	rc := &RealTCPConn{c: c, codec: codec, loop: loop}
	go rc.readLoop()
	return rc
}

// DialRealTCP connects to addr and wraps the connection. The handshake time
// seeds the RTT estimate.
func DialRealTCP(addr string, codec Codec, loop *vclock.Loop) (*RealTCPConn, error) {
	start := time.Now()
	c, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	rc := NewRealTCPConn(c, codec, loop)
	rc.rtt = time.Since(start)
	return rc, nil
}

// ListenRealTCP accepts connections on addr, invoking accept (on the loop)
// for each. Close the returned listener to stop.
func ListenRealTCP(addr string, codec Codec, loop *vclock.Loop, accept func(*RealTCPConn)) (net.Listener, error) {
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
			rc := NewRealTCPConn(c, codec, loop)
			loop.Post(func() { accept(rc) })
		}
	}()
	return ln, nil
}

func (rc *RealTCPConn) readLoop() {
	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(rc.c, lenBuf[:]); err != nil {
			rc.Close()
			return
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n > maxFrame {
			rc.Close()
			return
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(rc.c, buf); err != nil {
			rc.Close()
			return
		}
		payload, err := rc.codec.Decode(buf)
		if err != nil {
			continue // skip undecodable frames; stream framing is intact
		}
		size := len(buf)
		rc.loop.Post(func() {
			rc.mu.Lock()
			fn := rc.recv
			rc.mu.Unlock()
			if fn != nil {
				fn(payload, size)
			}
		})
	}
}

// Send implements Conn. The declared size is ignored; the encoded length is
// authoritative on a real wire — where the encoded frame is the payload's last
// reader, so a pooled payload's lease ends when Send returns.
func (rc *RealTCPConn) Send(payload any, _ int) error {
	defer netsim.ReleaseTransit(nil, payload)
	rc.mu.Lock()
	closed := rc.closed
	rc.mu.Unlock()
	if closed {
		return ErrClosed
	}
	// The 4-byte length prefix is reserved up front and patched in, so the
	// whole frame goes out as one Write from the recycled buffer.
	return rc.enc.encodeFrame(rc.codec, payload, 4, func(frame []byte) error {
		n := len(frame) - 4
		if n > maxFrame {
			return fmt.Errorf("transport: frame too large: %d", n)
		}
		binary.BigEndian.PutUint32(frame, uint32(n))
		_, err := rc.c.Write(frame)
		return err
	})
}

// SetReceiver implements Conn.
func (rc *RealTCPConn) SetReceiver(fn func(any, int)) {
	rc.mu.Lock()
	rc.recv = fn
	rc.mu.Unlock()
}

// Close implements Conn.
func (rc *RealTCPConn) Close() error {
	rc.mu.Lock()
	if rc.closed {
		rc.mu.Unlock()
		return nil
	}
	rc.closed = true
	rc.mu.Unlock()
	return rc.c.Close()
}

// Protocol implements Conn.
func (rc *RealTCPConn) Protocol() Protocol { return TCP }

// LocalAddr implements Conn.
func (rc *RealTCPConn) LocalAddr() string { return rc.c.LocalAddr().String() }

// RemoteAddr implements Conn.
func (rc *RealTCPConn) RemoteAddr() string { return rc.c.RemoteAddr().String() }

// RTT implements Conn.
func (rc *RealTCPConn) RTT() time.Duration {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.rtt
}

// RealUDPPort is an unconnected UDP socket usable as a server data port.
type RealUDPPort struct {
	pc    net.PacketConn
	codec Codec
	loop  *vclock.Loop
	enc   frameWriter // recycled encode buffer

	mu     sync.Mutex
	closed bool
}

// ListenRealUDP binds a UDP socket on addr. recv runs on the loop for every
// decodable datagram.
func ListenRealUDP(addr string, codec Codec, loop *vclock.Loop, recv func(from string, payload any, size int)) (*RealUDPPort, error) {
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, err
	}
	p := &RealUDPPort{pc: pc, codec: codec, loop: loop}
	go func() {
		buf := make([]byte, 64*1024)
		for {
			n, from, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			payload, derr := codec.Decode(buf[:n])
			if derr != nil {
				continue
			}
			fromStr, size := from.String(), n
			loop.Post(func() { recv(fromStr, payload, size) })
		}
	}()
	return p, nil
}

// LocalAddr returns the bound address.
func (p *RealUDPPort) LocalAddr() string { return p.pc.LocalAddr().String() }

// SendTo transmits one datagram.
func (p *RealUDPPort) SendTo(addr string, payload any, _ int) error {
	defer netsim.ReleaseTransit(nil, payload)
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return ErrClosed
	}
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return err
	}
	return p.enc.encodeFrame(p.codec, payload, 0, func(frame []byte) error {
		_, err := p.pc.WriteTo(frame, raddr)
		return err
	})
}

// Close unbinds the socket.
func (p *RealUDPPort) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	return p.pc.Close()
}

// ConnFor returns a Conn view of the port talking to raddr, mirroring
// UDPPort.ConnFor for the simulator.
func (p *RealUDPPort) ConnFor(raddr string) Conn {
	return &realUDPPortConn{port: p, raddr: raddr}
}

type realUDPPortConn struct {
	port  *RealUDPPort
	raddr string
}

func (c *realUDPPortConn) Send(payload any, size int) error {
	return c.port.SendTo(c.raddr, payload, size)
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
	c     *net.UDPConn
	codec Codec
	loop  *vclock.Loop
	enc   frameWriter // recycled encode buffer

	mu     sync.Mutex
	recv   func(any, int)
	closed bool
}

// DialRealUDP "connects" a UDP socket to addr and starts its reader.
func DialRealUDP(addr string, codec Codec, loop *vclock.Loop) (*RealUDPConn, error) {
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	c, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, err
	}
	rc := &RealUDPConn{c: c, codec: codec, loop: loop}
	go func() {
		buf := make([]byte, 64*1024)
		for {
			n, err := c.Read(buf)
			if err != nil {
				return
			}
			payload, derr := codec.Decode(buf[:n])
			if derr != nil {
				continue
			}
			size := n
			loop.Post(func() {
				rc.mu.Lock()
				fn := rc.recv
				rc.mu.Unlock()
				if fn != nil {
					fn(payload, size)
				}
			})
		}
	}()
	return rc, nil
}

// Send implements Conn.
func (rc *RealUDPConn) Send(payload any, _ int) error {
	defer netsim.ReleaseTransit(nil, payload)
	rc.mu.Lock()
	closed := rc.closed
	rc.mu.Unlock()
	if closed {
		return ErrClosed
	}
	return rc.enc.encodeFrame(rc.codec, payload, 0, func(frame []byte) error {
		_, err := rc.c.Write(frame)
		return err
	})
}

// SetReceiver implements Conn.
func (rc *RealUDPConn) SetReceiver(fn func(any, int)) {
	rc.mu.Lock()
	rc.recv = fn
	rc.mu.Unlock()
}

// Close implements Conn.
func (rc *RealUDPConn) Close() error {
	rc.mu.Lock()
	if rc.closed {
		rc.mu.Unlock()
		return nil
	}
	rc.closed = true
	rc.mu.Unlock()
	return rc.c.Close()
}

// Protocol implements Conn.
func (rc *RealUDPConn) Protocol() Protocol { return UDP }

// LocalAddr implements Conn.
func (rc *RealUDPConn) LocalAddr() string { return rc.c.LocalAddr().String() }

// RemoteAddr implements Conn.
func (rc *RealUDPConn) RemoteAddr() string { return rc.c.RemoteAddr().String() }

// RTT implements Conn.
func (rc *RealUDPConn) RTT() time.Duration { return 0 }

var _ Conn = (*RealTCPConn)(nil)
var _ Conn = (*RealUDPConn)(nil)
