package session

import (
	"fmt"
	"net"

	"realtracer/internal/simclock"
	"realtracer/internal/transport"
)

// RealNet implements Net over OS sockets for live localhost runs. All
// deliveries are serialized through the Loop, keeping engines
// single-threaded exactly as in simulation.
type RealNet struct {
	// Host is the bind/advertise address ("127.0.0.1" for the examples).
	Host string
	// Loop serializes callbacks.
	Loop *simclock.Loop
	// codec is fixed: the session Codec.
}

// ListenTCP implements Net.
func (n RealNet) ListenTCP(port int, accept func(transport.Conn)) (func(), error) {
	ln, err := transport.ListenRealTCP(n.hostPort(port), Codec{}, n.Loop, func(c *transport.RealTCPConn) {
		accept(c)
	})
	if err != nil {
		return nil, err
	}
	return func() { ln.Close() }, nil
}

// ListenUDP implements Net.
func (n RealNet) ListenUDP(port int, recv func(string, any, int)) (DataPort, error) {
	return transport.ListenRealUDP(n.hostPort(port), Codec{}, n.Loop, recv)
}

// DialTCP implements Net. Dialing happens on a fresh goroutine; the callback
// runs on the loop, and the conn starts reading once it has.
func (n RealNet) DialTCP(addr string, cb func(transport.Conn, error)) string {
	transport.DialRealTCP(addr, Codec{}, n.Loop, func(c *transport.RealTCPConn, err error) {
		if err != nil {
			cb(nil, err) // not a typed nil *RealTCPConn
			return
		}
		cb(c, nil)
	})
	return ""
}

// DialUDP implements Net.
func (n RealNet) DialUDP(addr string) (transport.Conn, error) {
	return transport.DialRealUDP(addr, Codec{}, n.Loop)
}

// Addr implements Net.
func (n RealNet) Addr(port int) string { return n.hostPort(port) }

func (n RealNet) hostPort(port int) string {
	return net.JoinHostPort(n.Host, fmt.Sprintf("%d", port))
}

var _ Net = RealNet{}
var _ Net = SimNet{}
