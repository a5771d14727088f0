package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"realtracer/internal/packet"
	"realtracer/internal/simclock"
)

// byteCodec is a trivial Codec for exercising the real-socket adapters.
type byteCodec struct{}

func (byteCodec) EncodeTo(w *packet.Writer, payload any) error {
	s, ok := payload.(string)
	if !ok {
		return fmt.Errorf("byteCodec: %T", payload)
	}
	w.Raw([]byte(s))
	return nil
}

func (byteCodec) Decode(data []byte) (any, error) { return string(data), nil }

func runLoop(loop *simclock.Loop) func() {
	done := make(chan struct{})
	go func() {
		loop.Run()
		close(done)
	}()
	return func() {
		loop.Close()
		<-done
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}

// dial connects to addr through DialRealTCP and binds recv in the dial
// callback, as an owner does; the loop must be running.
func dial(t *testing.T, addr string, loop *simclock.Loop, recv func(any, int)) *RealTCPConn {
	t.Helper()
	var conn *RealTCPConn
	var err error
	done := make(chan struct{})
	DialRealTCP(addr, byteCodec{}, loop, func(c *RealTCPConn, e error) {
		if conn, err = c, e; err == nil {
			c.SetReceiver(recv)
		}
		close(done)
	})
	<-done
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// frame is payload as RealTCPConn frames it on the wire.
func frame(payload string) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

func TestRealTCPEndToEnd(t *testing.T) {
	loop := simclock.NewLoop(simclock.New())
	stop := runLoop(loop)
	defer stop()

	var got []string
	ln, err := ListenRealTCP("127.0.0.1:0", byteCodec{}, loop, func(c *RealTCPConn) {
		c.SetReceiver(func(payload any, size int) {
			got = append(got, payload.(string))
			c.Send("echo:"+payload.(string), 0)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var echoed []string
	conn := dial(t, ln.Addr().String(), loop, func(payload any, _ int) {
		echoed = append(echoed, payload.(string))
	})
	defer conn.Close()
	for i := 0; i < 20; i++ {
		if err := conn.Send(fmt.Sprintf("m%d", i), 0); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		var n int
		done := make(chan struct{})
		loop.Post(func() { n = len(echoed); close(done) })
		<-done
		return n == 20
	})
	if conn.Protocol() != TCP || conn.RTT() < 0 {
		t.Fatal("metadata wrong")
	}
	_ = got
}

// firstFrame returns a receiver that keeps the first payload it is given on
// got without ever blocking the loop.
func firstFrame(got chan string) func(any, int) {
	return func(payload any, _ int) {
		select {
		case got <- payload.(string):
		default:
		}
	}
}

// holdHandOver delays every conn's hand-over to its owner by d, long enough
// for a frame already sent by the peer to reach the conn's socket, and
// undoes that when the test ends.
func holdHandOver(t *testing.T, d time.Duration) {
	testHookHandOver = func() { time.Sleep(d) }
	t.Cleanup(func() { testHookHandOver = nil })
}

// TestRealTCPAcceptedConnHearsTheFirstFrame: a client that speaks the
// moment it connects is heard. The conn is handed to the accept callback
// after the client's first frame has reached the server's socket, and a
// conn that read it before the callback had bound a receiver would drop it.
func TestRealTCPAcceptedConnHearsTheFirstFrame(t *testing.T) {
	loop := simclock.NewLoop(simclock.New())
	stop := runLoop(loop)
	defer stop()
	holdHandOver(t, 100*time.Millisecond)
	got := make(chan string, 1)
	ln, err := ListenRealTCP("127.0.0.1:0", byteCodec{}, loop, func(c *RealTCPConn) { c.SetReceiver(firstFrame(got)) })
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Write(frame("hello")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m != "hello" {
			t.Fatalf("first frame %q, want hello", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the client's first frame was lost: the conn read it before the accept callback bound a receiver")
	}
}

// TestRealTCPDialerHearsAServerThatSpeaksFirst is the same rule on the
// dialing side: the server writes as soon as it accepts, and the frame
// reaches the dialer's socket before the dial callback runs.
func TestRealTCPDialerHearsAServerThatSpeaksFirst(t *testing.T) {
	loop := simclock.NewLoop(simclock.New())
	stop := runLoop(loop)
	defer stop()
	holdHandOver(t, 100*time.Millisecond)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		c.Write(frame("hello"))
		io.Copy(io.Discard, c) // hold the conn open until the dialer closes it
	}()

	got := make(chan string, 1)
	conn := dial(t, ln.Addr().String(), loop, firstFrame(got))
	defer conn.Close()
	select {
	case m := <-got:
		if m != "hello" {
			t.Fatalf("first frame %q, want hello", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the server's first frame was lost: the conn read it before the dial callback bound a receiver")
	}
}

func TestRealTCPSendAfterClose(t *testing.T) {
	loop := simclock.NewLoop(simclock.New())
	stop := runLoop(loop)
	defer stop()
	ln, err := ListenRealTCP("127.0.0.1:0", byteCodec{}, loop, func(c *RealTCPConn) {})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn := dial(t, ln.Addr().String(), loop, nil)
	conn.Close()
	if err := conn.Send("x", 0); err != ErrClosed {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestRealUDPEndToEnd(t *testing.T) {
	loop := simclock.NewLoop(simclock.New())
	stop := runLoop(loop)
	defer stop()

	type fromMsg struct {
		from string
		msg  string
	}
	recvd := make(chan fromMsg, 16)
	port, err := ListenRealUDP("127.0.0.1:0", byteCodec{}, loop, func(from string, payload any, size int) {
		recvd <- fromMsg{from, payload.(string)}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer port.Close()

	conn, err := DialRealUDP(port.LocalAddr(), byteCodec{}, loop)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	replies := make(chan string, 16)
	conn.SetReceiver(func(payload any, _ int) { replies <- payload.(string) })

	if err := conn.Send("ping", 0); err != nil {
		t.Fatal(err)
	}
	select {
	case fm := <-recvd:
		if fm.msg != "ping" {
			t.Fatalf("got %q", fm.msg)
		}
		// Reply through the unconnected port to the sender's address.
		if err := port.ConnFor(fm.from).Send("pong", 0); err != nil {
			t.Fatal(err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("datagram never arrived")
	}
	select {
	case reply := <-replies:
		if reply != "pong" {
			t.Fatalf("reply=%q", reply)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("reply never arrived")
	}
	if conn.Protocol() != UDP {
		t.Fatal("protocol label wrong")
	}
}

// TestRealUDPConnReceivesAfterRefusal: a datagram sent before the server
// binds its port comes back as an ICMP port-unreachable, which a connected
// socket's next read reports as an error. The conn must keep reading, so
// the reply to a datagram sent once the port is bound still arrives.
func TestRealUDPConnReceivesAfterRefusal(t *testing.T) {
	loop := simclock.NewLoop(simclock.New())
	stop := runLoop(loop)
	defer stop()

	spare, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := spare.LocalAddr().String()
	spare.Close()

	conn, err := DialRealUDP(addr, byteCodec{}, loop)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The receivers run on the loop and must never block it, or stop would
	// wait forever: each keeps the first value and drops the rest.
	replies, pings := make(chan string, 1), make(chan string, 1)
	conn.SetReceiver(func(payload any, _ int) {
		select {
		case replies <- payload.(string):
		default:
		}
	})
	if err := conn.Send("early", 0); err != nil {
		t.Fatal(err)
	}
	// No event marks the refusal's arrival at the blocked reader; binding
	// before it arrives would let the test pass without exercising it.
	time.Sleep(100 * time.Millisecond)

	port, err := ListenRealUDP(addr, byteCodec{}, loop, func(from string, _ any, _ int) {
		select {
		case pings <- from:
		default:
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer port.Close()
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	deadline := time.After(time.Second)
	conn.Send("ping", 0)
	for {
		select {
		case from := <-pings:
			if err := port.ConnFor(from).Send("pong", 0); err != nil {
				t.Fatal(err)
			}
		case reply := <-replies:
			if reply != "pong" {
				t.Fatalf("reply=%q", reply)
			}
			return
		case <-tick.C:
			conn.Send("ping", 0) // a send may itself report the pending refusal
		case <-deadline:
			t.Fatal("no reply within 1 s: the conn stopped reading after the refusal")
		}
	}
}

func TestRealUDPPortConnFor(t *testing.T) {
	loop := simclock.NewLoop(simclock.New())
	stop := runLoop(loop)
	defer stop()
	port, err := ListenRealUDP("127.0.0.1:0", byteCodec{}, loop, func(string, any, int) {})
	if err != nil {
		t.Fatal(err)
	}
	defer port.Close()
	c := port.ConnFor("127.0.0.1:19999")
	if c.Protocol() != UDP || c.RemoteAddr() != "127.0.0.1:19999" {
		t.Fatal("ConnFor metadata wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetReceiver on port-backed conn must panic")
		}
	}()
	c.SetReceiver(func(any, int) {})
}

// TestRealUDPPortConnForResolvesOnce: a view resolves its address when it is
// built, and one whose address does not resolve returns that resolution
// error — the same value, not a fresh lookup's — from every Send.
func TestRealUDPPortConnForResolvesOnce(t *testing.T) {
	loop := simclock.NewLoop(simclock.New())
	port, err := ListenRealUDP("127.0.0.1:0", byteCodec{}, loop, func(string, any, int) {})
	if err != nil {
		t.Fatal(err)
	}
	defer port.Close()
	c := port.ConnFor("127.0.0.1") // no port: refused without a lookup
	first := c.Send("x", 0)
	if first == nil {
		t.Fatal("a send to an address without a port succeeded")
	}
	for range 3 {
		if err := c.Send("x", 0); err != first {
			t.Fatalf("Send returned %v, want the view's resolution error %v", err, first)
		}
	}
	if err := port.ConnFor(port.LocalAddr()).Send("x", 0); err != nil {
		t.Fatalf("send to a resolved address: %v", err)
	}
}
