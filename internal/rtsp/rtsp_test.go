package rtsp

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// msgs is the pool the tests lease their messages from.
var msgs Pool

func TestRequestRoundTrip(t *testing.T) {
	req := msgs.Request(MethodDescribe, "rtsp://host/clip.rm", 7)
	req.Set("Bandwidth", "350")
	req.Set("transport", "proto=udp")
	got, err := Parse(req.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Request || got.Method != MethodDescribe || got.URL != "rtsp://host/clip.rm" || got.CSeq != 7 {
		t.Fatalf("request line mismatch: %+v", got)
	}
	if got.Get("bandwidth") != "350" {
		t.Fatal("header canonicalization broken")
	}
	if got.Get("Transport") != "proto=udp" {
		t.Fatal("transport header lost")
	}
}

func TestResponseRoundTripWithBody(t *testing.T) {
	req := msgs.Request(MethodDescribe, "rtsp://h/c", 3)
	resp := msgs.Response(req, StatusOK)
	resp.Body = []byte("duration_ms=60000\nscalable=true\n")
	got, err := Parse(resp.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Request || got.Status != StatusOK || got.CSeq != 3 {
		t.Fatalf("response mismatch: %+v", got)
	}
	if !bytes.Equal(got.Body, resp.Body) {
		t.Fatalf("body mismatch: %q", got.Body)
	}
}

func TestStatusTextAndReasons(t *testing.T) {
	for code, want := range map[int]string{
		StatusOK: "OK", StatusBadRequest: "Bad Request", StatusNotFound: "Not Found",
		StatusUnavailable: "Not Enough Bandwidth", StatusSessionNotFound: "Session Not Found",
		StatusInternalError: "Internal Server Error",
	} {
		if StatusText(code) != want {
			t.Errorf("StatusText(%d)=%q", code, StatusText(code))
		}
	}
	resp := msgs.Response(msgs.Request(MethodPlay, "u", 1), StatusUnavailable)
	if !strings.Contains(string(resp.Marshal()), "453 Not Enough Bandwidth") {
		t.Fatal("reason phrase missing from status line")
	}
}

func TestParseMalformed(t *testing.T) {
	cases := []string{
		"",
		"GARBAGE\r\n\r\n",
		"DESCRIBE rtsp://x\r\n\r\n",          // missing version
		"DESCRIBE rtsp://x HTTP/1.1\r\n\r\n", // wrong protocol
		"RTSP/1.0 abc OK\r\nCSeq: 1\r\n\r\n", // non-numeric status
		"PLAY u RTSP/1.0\r\nno-colon-line\r\n\r\n", // bad header
		"PLAY u RTSP/1.0\r\nCSeq: x\r\n\r\n",       // bad cseq
	}
	for _, c := range cases {
		if _, err := Parse([]byte(c)); err == nil {
			t.Errorf("accepted malformed message %q", c)
		}
	}
}

func TestParseTruncatedBody(t *testing.T) {
	raw := "RTSP/1.0 200 OK\r\nCSeq: 1\r\nContent-Length: 50\r\n\r\nshort"
	if _, err := Parse([]byte(raw)); err != ErrTruncatedBody {
		t.Fatalf("want ErrTruncatedBody, got %v", err)
	}
}

// Property: any request with sane header values round-trips.
func TestPropertyRequestRoundTrip(t *testing.T) {
	methods := []string{MethodOptions, MethodDescribe, MethodSetup, MethodPlay, MethodPause, MethodTeardown}
	f := func(mIdx uint8, cseq uint16, bandwidth uint16, body []byte) bool {
		if bytes.ContainsAny(body, "\x00") {
			body = nil
		}
		m := msgs.Request(methods[int(mIdx)%len(methods)], "rtsp://server/clip.rm", int(cseq))
		m.Set("Bandwidth", "100")
		m.Body = body
		got, err := Parse(m.Marshal())
		if err != nil {
			return false
		}
		return got.Method == m.Method && got.CSeq == m.CSeq && bytes.Equal(got.Body, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestTransportSpecRoundTrip(t *testing.T) {
	spec := TransportSpec{Protocol: "udp", ClientDataAddr: "cli:12345", ServerDataAddr: "srv:6970"}
	got, err := ParseTransport(spec.Format())
	if err != nil {
		t.Fatal(err)
	}
	if got != spec {
		t.Fatalf("transport mismatch: %+v vs %+v", got, spec)
	}
}

func TestTransportSpecErrors(t *testing.T) {
	if _, err := ParseTransport(""); err == nil {
		t.Fatal("empty transport accepted")
	}
	if _, err := ParseTransport("proto=icmp"); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if _, err := ParseTransport("nonsense"); err == nil {
		t.Fatal("missing = accepted")
	}
}

// TestWireSizeMatchesMarshal: the simulator charges the network WireSize
// and never renders the text, so the arithmetic must agree with Marshal on
// every shape a message takes — either kind, with and without a body, a
// reason phrase left for Marshal to fill in, a CSeq of any width or sign,
// any number of headers.
func TestWireSizeMatchesMarshal(t *testing.T) {
	var cases []*Message
	for _, cseq := range []int{0, 7, -1, 99999, -12345, math.MaxInt, math.MinInt} {
		for headers := 0; headers <= 3; headers++ {
			req := msgs.Request(MethodSetup, "rtsp://cnn.us/clip000.rm", cseq)
			resp := msgs.Response(req, StatusOK)
			body := msgs.Response(req, StatusUnavailable)
			body.Body = bytes.Repeat([]byte("x"), []int{9, 10, 999, 1000}[headers]) // Content-Length of every width
			bare := &Message{Status: StatusNotFound, CSeq: cseq}                    // no reason: Marshal writes StatusText
			odd := &Message{Status: -40, Reason: "", CSeq: cseq, Body: []byte("x")}
			for _, m := range []*Message{req, resp, body, bare, odd} {
				for _, kv := range [][2]string{{"Session", "sess-1"}, {"transport", "proto=udp;client_addr=user00.us:10001"}, {"X-Empty", ""}}[:headers] {
					m.Set(kv[0], kv[1])
				}
				cases = append(cases, m)
			}
		}
	}
	cases = append(cases, &Message{Request: true}, &Message{})
	cases = append(cases, corpusMessages()...)
	for _, m := range cases {
		if wire := m.Marshal(); m.WireSize() != len(wire) {
			t.Errorf("WireSize %d, Marshal wrote %d bytes: %q", m.WireSize(), len(wire), wire)
		}
	}
}

func TestHeaderCanonicalization(t *testing.T) {
	m := &Message{}
	m.Set("content-TYPE", "text/plain")
	if m.Get("Content-Type") != "text/plain" {
		t.Fatal("canonicalization failed")
	}
}
