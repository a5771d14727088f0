// Package rtsp implements the subset of the Real Time Streaming Protocol
// [SRL98] that a RealServer/RealPlayer session uses: DESCRIBE, SETUP, PLAY,
// PAUSE, TEARDOWN, OPTIONS and SET_PARAMETER requests with CSeq-matched
// responses, in the standard text wire format. The control connection always
// runs over TCP (paper Section II.A); the negotiated data connection is TCP
// or UDP.
package rtsp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net/textproto"
	"slices"
	"strconv"
	"strings"

	"realtracer/internal/netsim"
)

// Version is the protocol version emitted on the wire.
const Version = "RTSP/1.0"

// Methods used by the session layer.
const (
	MethodOptions      = "OPTIONS"
	MethodDescribe     = "DESCRIBE"
	MethodSetup        = "SETUP"
	MethodPlay         = "PLAY"
	MethodPause        = "PAUSE"
	MethodTeardown     = "TEARDOWN"
	MethodSetParameter = "SET_PARAMETER"
)

// Status codes used by the session layer.
const (
	StatusOK            = 200
	StatusNotFound      = 404
	StatusUnavailable   = 453 // "Not Enough Bandwidth" repurposed: clip temporarily unavailable
	StatusInternalError = 500
)

// StatusText returns the reason phrase for a status code.
func StatusText(code int) string {
	switch code {
	case StatusOK:
		return "OK"
	case StatusNotFound:
		return "Not Found"
	case StatusUnavailable:
		return "Not Enough Bandwidth"
	case StatusInternalError:
		return "Internal Server Error"
	default:
		return "Unknown"
	}
}

// Message is an RTSP request or response.
type Message struct {
	// Request is true for requests; false for responses.
	Request bool
	// Method and URL are set on requests.
	Method string
	URL    string
	// Status and Reason are set on responses.
	Status int
	Reason string
	// CSeq pairs responses with requests.
	CSeq int
	// hdr holds the remaining headers; Set, Get and GetInt reach them.
	hdr header
	// Body is the optional payload (e.g. a clip description).
	Body []byte
}

// TransitCopy implements netsim.Transferable. A message is built, sent and
// never written again — not by its sender, its receiver or a snapshot — so it
// crosses a shard boundary as itself: the shards share no mutable memory, and
// no pool recycles it.
func (m *Message) TransitCopy(*netsim.TransitPool) any { return m }

// field is one header: its canonical key and its value.
type field struct{ key, value string }

// inlineFields is how many headers a message holds without a heap slice: no
// message the simulator builds carries more than three.
const inlineFields = 3

// header is a message's header list, sorted by key, each key at most once.
// Up to inlineFields of them live in the fixed array; past that every field
// moves to spill, a heap slice.
type header struct {
	inline [inlineFields]field
	n      int // fields in inline; unused once spill holds them
	spill  []field
}

// list returns the fields in key order.
func (h *header) list() []field {
	if h.spill != nil {
		return h.spill
	}
	return h.inline[:h.n]
}

// set replaces key's value, or inserts the field in key order.
func (h *header) set(key, value string) {
	fs := h.list()
	i, found := slices.BinarySearchFunc(fs, key, func(f field, k string) int { return strings.Compare(f.key, k) })
	switch {
	case found:
		fs[i].value = value
	case h.spill == nil && h.n < inlineFields:
		copy(h.inline[i+1:h.n+1], h.inline[i:h.n])
		h.inline[i] = field{key, value}
		h.n++
	default:
		// A full inline list is as long as its array, so the insert that
		// spills it always lands in a fresh one.
		h.spill = slices.Insert(fs, i, field{key, value})
	}
}

// NewRequest builds a request message.
func NewRequest(method, url string, cseq int) *Message {
	return &Message{Request: true, Method: method, URL: url, CSeq: cseq}
}

// NewResponse builds a response to req with the given status.
func NewResponse(req *Message, status int) *Message {
	return &Message{Status: status, Reason: StatusText(status), CSeq: req.CSeq}
}

// Set sets a header value; setting a key again replaces its value.
func (m *Message) Set(key, value string) { m.hdr.set(canonical(key), value) }

// Get returns a header value or "".
func (m *Message) Get(key string) string {
	key = canonical(key)
	for _, f := range m.hdr.list() {
		if f.key == key {
			return f.value
		}
	}
	return ""
}

// GetInt parses a header as an integer, returning def when absent or
// malformed.
func (m *Message) GetInt(key string, def int) int {
	v := m.Get(key)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return def
	}
	return n
}

// canonical title-cases dash-separated header keys ("content-length" ->
// "Content-Length") via net/textproto, which is byte-wise over ASCII and
// therefore idempotent on hostile keys — FuzzParseRequest found a
// strings.ToLower/ToUpper version growing a \xff key by three replacement-
// char bytes per parse/marshal round.
func canonical(key string) string { return textproto.CanonicalMIMEHeaderKey(key) }

// Marshal renders the message in wire format.
func (m *Message) Marshal() []byte {
	var b bytes.Buffer
	if m.Request {
		fmt.Fprintf(&b, "%s %s %s\r\n", m.Method, m.URL, Version)
	} else {
		reason := m.Reason
		if reason == "" {
			reason = StatusText(m.Status)
		}
		fmt.Fprintf(&b, "%s %d %s\r\n", Version, m.Status, reason)
	}
	fmt.Fprintf(&b, "CSeq: %d\r\n", m.CSeq)
	if len(m.Body) > 0 {
		fmt.Fprintf(&b, "Content-Length: %d\r\n", len(m.Body))
	}
	for _, f := range m.hdr.list() {
		fmt.Fprintf(&b, "%s: %s\r\n", f.key, f.value)
	}
	b.WriteString("\r\n")
	b.Write(m.Body)
	return b.Bytes()
}

// Parse errors.
var (
	ErrMalformed     = errors.New("rtsp: malformed message")
	ErrTruncatedBody = errors.New("rtsp: body shorter than Content-Length")
)

// Parse decodes a wire message produced by Marshal (or any conforming RTSP
// peer).
func Parse(data []byte) (*Message, error) {
	r := bufio.NewReader(bytes.NewReader(data))
	line, err := r.ReadString('\n')
	if err != nil {
		return nil, ErrMalformed
	}
	line = strings.TrimRight(line, "\r\n")
	m := &Message{}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) < 3 {
		return nil, ErrMalformed
	}
	if strings.HasPrefix(parts[0], "RTSP/") {
		m.Request = false
		status, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, ErrMalformed
		}
		m.Status = status
		m.Reason = parts[2]
	} else {
		m.Request = true
		m.Method = parts[0]
		m.URL = parts[1]
		if !strings.HasPrefix(parts[2], "RTSP/") {
			return nil, ErrMalformed
		}
	}
	contentLength := 0
	for {
		h, err := r.ReadString('\n')
		if err != nil {
			return nil, ErrMalformed
		}
		h = strings.TrimRight(h, "\r\n")
		if h == "" {
			break
		}
		i := strings.Index(h, ":")
		if i < 0 {
			return nil, ErrMalformed
		}
		key := canonical(strings.TrimSpace(h[:i]))
		val := strings.TrimSpace(h[i+1:])
		switch key {
		case "Cseq":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, ErrMalformed
			}
			m.CSeq = n
		case "Content-Length":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, ErrMalformed
			}
			contentLength = n
		default:
			m.hdr.set(key, val)
		}
	}
	if contentLength > 0 {
		// Bound the allocation by the input size before trusting the header:
		// a hostile Content-Length must not reserve gigabytes (found by
		// FuzzParseRequest). The body cannot be longer than what arrived.
		if contentLength > len(data) {
			return nil, ErrTruncatedBody
		}
		body := make([]byte, contentLength)
		n, _ := r.Read(body)
		for n < contentLength {
			more, err := r.Read(body[n:])
			if more == 0 || err != nil {
				return nil, ErrTruncatedBody
			}
			n += more
		}
		m.Body = body
	}
	return m, nil
}

// WireSize returns how many bytes Marshal would write, without rendering
// them: the simulator sends the message itself and charges the network its
// size, so the terms below are Marshal's lines in Marshal's order.
// TestWireSizeMatchesMarshal and FuzzParseRequest hold the two equal.
func (m *Message) WireSize() int {
	n := len(Version) + len("  \r\n") // the start line's fixed part
	switch {
	case m.Request:
		n += len(m.Method) + len(m.URL)
	case m.Reason == "":
		n += decWidth(m.Status) + len(StatusText(m.Status))
	default:
		n += decWidth(m.Status) + len(m.Reason)
	}
	n += len("CSeq: \r\n") + decWidth(m.CSeq)
	if len(m.Body) > 0 {
		n += len("Content-Length: \r\n") + decWidth(len(m.Body))
	}
	for _, f := range m.hdr.list() {
		n += len(f.key) + len(": \r\n") + len(f.value)
	}
	return n + len("\r\n") + len(m.Body)
}

// decWidth is len(strconv.Itoa(n)).
func decWidth(n int) int {
	w, u := 1, uint64(n)
	if n < 0 {
		w, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		w++
	}
	return w
}

// Transport header helpers: the SETUP exchange negotiates the data channel.

// TransportSpec is the parsed Transport header of a SETUP exchange.
type TransportSpec struct {
	// Protocol is "tcp" or "udp" for the data connection.
	Protocol string
	// ClientDataAddr is where UDP data should be sent (client's data port).
	ClientDataAddr string
	// ServerDataAddr is the server's data source address (response only).
	ServerDataAddr string
}

// Format renders the spec as a Transport header value.
func (t TransportSpec) Format() string {
	var client, server string
	if t.ClientDataAddr != "" {
		client = ";client_addr="
	}
	if t.ServerDataAddr != "" {
		server = ";server_addr="
	}
	return "proto=" + t.Protocol + client + t.ClientDataAddr + server + t.ServerDataAddr
}

// ParseTransport parses a Transport header value.
func ParseTransport(v string) (TransportSpec, error) {
	var t TransportSpec
	if v == "" {
		return t, errors.New("rtsp: empty Transport header")
	}
	for more := true; more; {
		var part string
		part, v, more = strings.Cut(v, ";")
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return t, fmt.Errorf("rtsp: bad Transport item %q", part)
		}
		switch key {
		case "proto":
			t.Protocol = val
		case "client_addr":
			t.ClientDataAddr = val
		case "server_addr":
			t.ServerDataAddr = val
		}
	}
	if t.Protocol != "tcp" && t.Protocol != "udp" {
		return t, fmt.Errorf("rtsp: unknown data protocol %q", t.Protocol)
	}
	return t, nil
}
