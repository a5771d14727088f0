package rtsp

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// corpusMessages are real session exchanges: the request sequence a
// RealPlayer/RealTracer session sends and the responses a RealServer
// returns, as produced by this codec on the wire.
func corpusMessages() []*Message {
	describe := msgs.Request(MethodDescribe, "rtsp://cnn.us/clip000.rm", 1)
	describe.Set("Accept", "application/sdp")
	describe.Set("Bandwidth", "350")

	descResp := msgs.Response(describe, StatusOK)
	descResp.Body = []byte("title=clip000\nduration_ms=272000\nscalable=true\nlive=false\nenc=225/16/20/320x240\nenc=80/11/15/176x132\nenc=20/8/7.5/160x120\n")

	setup := msgs.Request(MethodSetup, "rtsp://cnn.us/clip000.rm", 2)
	setup.Set("Transport", TransportSpec{Protocol: "udp", ClientDataAddr: "user00.us:10001"}.Format())
	setup.Set("Bandwidth", "350")

	setupResp := msgs.Response(setup, StatusOK)
	setupResp.Set("Session", "sess-1")
	setupResp.Set("Transport", TransportSpec{Protocol: "udp", ServerDataAddr: "cnn.us:6970"}.Format())

	play := msgs.Request(MethodPlay, "rtsp://cnn.us/clip000.rm", 3)
	play.Set("Session", "sess-1")
	play.Set("Range", "npt=0-")

	unavailable := msgs.Response(describe, StatusUnavailable)
	teardown := msgs.Request(MethodTeardown, "rtsp://cnn.us/clip000.rm", 4)
	teardown.Set("Session", "sess-1")

	options := msgs.Request(MethodOptions, "*", 0)
	setParam := msgs.Request(MethodSetParameter, "rtsp://cnn.us/clip000.rm", 5)
	setParam.Set("Ping", "1")

	return []*Message{describe, descResp, setup, setupResp, play, unavailable, teardown, options, setParam}
}

// FuzzParseRequest fuzzes the RTSP text parser with real exchanges as the
// seed corpus. Any accepted input must marshal back to a stable wire form:
// Marshal(Parse(b)) must itself parse, and one round of normalization must
// reach a fixpoint, and WireSize must be the length of what Marshal writes.
// Parsing must never panic or allocate beyond the input (a hostile
// Content-Length used to reserve arbitrary memory). And on every input the
// header list must agree with the map-based message it replaced (refMessage,
// header_test.go): the same error, and for an accepted input the same wire
// bytes, size, header count and value for every key.
func FuzzParseRequest(f *testing.F) {
	for _, m := range corpusMessages() {
		f.Add(m.Marshal())
	}
	// Hand-written edge cases: bare CR, empty header values, huge and
	// negative Content-Lengths, missing terminator, truncated body.
	f.Add([]byte("PLAY rtsp://x RTSP/1.0\r\nCSeq: 1\r\nX: \r\n\r\n"))
	f.Add([]byte("RTSP/1.0 200 \r\nCSeq: 7\r\n\r\n"))
	f.Add([]byte("DESCRIBE u RTSP/1.0\nCSeq: 2\nContent-Length: 999999999\n\nhi"))
	f.Add([]byte("DESCRIBE u RTSP/1.0\r\nCSeq: 2\r\nContent-Length: -3\r\n\r\n"))
	f.Add([]byte("SETUP u RTSP/1.0\r\nCSeq: 3\r\nContent-Length: 5\r\n\r\nab"))
	f.Add([]byte("GET u HTTP/1.0\r\n\r\n"))
	// Header lists the map took in its stride: a key repeated in other
	// spellings (the last wins), more keys than fit inline, out of order.
	f.Add([]byte("PLAY u RTSP/1.0\r\nCSeq: 1\r\nsession: a\r\nRange: x\r\nSESSION: b\r\n\r\n"))
	f.Add([]byte("SETUP u RTSP/1.0\r\nCSeq: 2\r\nZ: 1\r\nA: 2\r\nm: 3\r\nB: 4\r\ny: \r\nA: 5\r\n\r\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Parse(data)
		ref, refErr := parseRef(data)
		if err != refErr {
			t.Fatalf("Parse(%q): error %v, the map-based parser says %v", data, err, refErr)
		}
		if err != nil {
			return // rejected input is fine; panics are not
		}
		sameHeaders(t, fmt.Sprintf("Parse(%q)", data), m, ref)
		b1 := m.Marshal()
		if m.WireSize() != len(b1) {
			t.Fatalf("WireSize %d, Marshal wrote %d bytes: %q", m.WireSize(), len(b1), b1)
		}
		m1, err := Parse(b1)
		if err != nil {
			t.Fatalf("re-parse of marshaled message failed: %v\nwire: %q", err, b1)
		}
		b2 := m1.Marshal()
		if !bytes.Equal(b1, b2) {
			t.Fatalf("marshal/parse not a fixpoint:\nfirst:  %q\nsecond: %q", b1, b2)
		}
		if len(m1.Body) != len(m.Body) {
			t.Fatalf("body length changed across round trip: %d -> %d", len(m.Body), len(m1.Body))
		}
	})
}

// parseTransportRef is ParseTransport as it stood while it split the header
// with strings.Split, kept verbatim as the oracle the walking parser is
// checked against.
func parseTransportRef(v string) (TransportSpec, error) {
	var t TransportSpec
	if v == "" {
		return t, errors.New("rtsp: empty Transport header")
	}
	for _, part := range strings.Split(v, ";") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return t, fmt.Errorf("rtsp: bad Transport item %q", part)
		}
		switch kv[0] {
		case "proto":
			t.Protocol = kv[1]
		case "client_addr":
			t.ClientDataAddr = kv[1]
		case "server_addr":
			t.ServerDataAddr = kv[1]
		}
	}
	if t.Protocol != "tcp" && t.Protocol != "udp" {
		return t, fmt.Errorf("rtsp: unknown data protocol %q", t.Protocol)
	}
	return t, nil
}

// FuzzParseTransport fuzzes the SETUP Transport header parser the same
// way: accepted specs must format/parse to a fixpoint. Every input, accepted
// or not, must get from ParseTransport the value and the error the reference
// parser gives it.
func FuzzParseTransport(f *testing.F) {
	f.Add("proto=udp;client_addr=user00.us:10001")
	f.Add("proto=tcp;server_addr=cnn.us:5540")
	f.Add("proto=udp")
	f.Add("proto=rtp/avp;unicast")
	f.Add("")
	f.Add("proto=udp;")
	f.Add(";proto=tcp;;client_addr=a=b;proto")
	f.Add("client_addr=x;server_addr=y")
	f.Fuzz(func(t *testing.T, v string) {
		spec, err := ParseTransport(v)
		want, wantErr := parseTransportRef(v)
		if spec != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("ParseTransport(%q) = %+v, %v; the reference parser says %+v, %v", v, spec, err, want, wantErr)
		}
		if err != nil {
			return
		}
		again, err := ParseTransport(spec.Format())
		if err != nil {
			t.Fatalf("re-parse of formatted spec failed: %v (%q)", err, spec.Format())
		}
		if again != spec {
			t.Fatalf("transport spec round trip changed: %+v -> %+v", spec, again)
		}
	})
}
