package transport

import (
	"fmt"
	"testing"
	"time"

	"realtracer/internal/packet"
	"realtracer/internal/vclock"
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

func runLoop(loop *vclock.Loop) func() {
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

func TestRealTCPEndToEnd(t *testing.T) {
	loop := vclock.NewLoop()
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

	conn, err := DialRealTCP(ln.Addr().String(), byteCodec{}, loop)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var echoed []string
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	conn.SetReceiver(func(payload any, _ int) {
		echoed = append(echoed, payload.(string))
	})
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

func TestRealTCPSendAfterClose(t *testing.T) {
	loop := vclock.NewLoop()
	stop := runLoop(loop)
	defer stop()
	ln, err := ListenRealTCP("127.0.0.1:0", byteCodec{}, loop, func(c *RealTCPConn) {})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := DialRealTCP(ln.Addr().String(), byteCodec{}, loop)
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if err := conn.Send("x", 0); err != ErrClosed {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestRealUDPEndToEnd(t *testing.T) {
	loop := vclock.NewLoop()
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
		if err := port.SendTo(fm.from, "pong", 0); err != nil {
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

func TestRealUDPPortConnFor(t *testing.T) {
	loop := vclock.NewLoop()
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
