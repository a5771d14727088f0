// Package session holds the protocol pieces shared by the server and player
// engines: the clip description exchanged in DESCRIBE, the data-channel
// hello that binds a TCP data connection to its RTSP session, the combined
// wire codec used by the real-socket transports, and the Net abstraction
// that lets the same engine code run over the simulator or over OS sockets.
package session

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"time"

	"realtracer/internal/media"
	"realtracer/internal/netsim"
	"realtracer/internal/packet"
	"realtracer/internal/rdt"
	"realtracer/internal/rtsp"
	"realtracer/internal/transport"
)

// Well-known ports, mirroring RealServer's defaults (554 RTSP; data ports in
// the 697x range).
const (
	ControlPort = 554
	DataTCPPort = 5540
	DataUDPPort = 6970
)

// EncodingDesc is one SureStream stream as advertised in DESCRIBE.
type EncodingDesc struct {
	TotalKbps float64
	AudioKbps float64
	FrameRate float64
	Width     int
	Height    int
}

// ClipDesc is the DESCRIBE body: everything the player needs to know about
// the clip before SETUP.
type ClipDesc struct {
	Title     string
	Duration  time.Duration
	Scalable  bool
	Live      bool
	Encodings []EncodingDesc
}

// DescFromClip converts a media clip to its advertised description.
func DescFromClip(c *media.Clip) ClipDesc {
	d := ClipDesc{Title: c.Title, Duration: c.Duration, Scalable: c.ScalableVideo, Live: c.Live,
		Encodings: make([]EncodingDesc, 0, len(c.Encodings))}
	for _, e := range c.Encodings {
		d.Encodings = append(d.Encodings, EncodingDesc{
			TotalKbps: e.TotalKbps, AudioKbps: e.AudioKbps,
			FrameRate: e.FrameRate, Width: e.Width, Height: e.Height,
		})
	}
	return d
}

// FrameRateFor returns the encoded frame rate of the stream whose total
// bandwidth is kbps, or 0 when unknown. Players use it to interpret the
// EncRate field of arriving data.
func (d ClipDesc) FrameRateFor(kbps float64) float64 {
	for _, e := range d.Encodings {
		if e.TotalKbps == kbps {
			return e.FrameRate
		}
	}
	return 0
}

// Marshal renders the description as the DESCRIBE body (a compact SDP-like
// text form: one key=value line each, floats in their shortest form).
func (d ClipDesc) Marshal() []byte {
	b := make([]byte, 0, 64+len(d.Title)+32*len(d.Encodings))
	b = append(append(b, "title="...), d.Title...)
	b = strconv.AppendInt(append(b, "\nduration_ms="...), d.Duration.Milliseconds(), 10)
	b = strconv.AppendBool(append(b, "\nscalable="...), d.Scalable)
	b = strconv.AppendBool(append(b, "\nlive="...), d.Live)
	for _, e := range d.Encodings {
		b = strconv.AppendFloat(append(b, "\nenc="...), e.TotalKbps, 'g', -1, 64)
		b = strconv.AppendFloat(append(b, '/'), e.AudioKbps, 'g', -1, 64)
		b = strconv.AppendFloat(append(b, '/'), e.FrameRate, 'g', -1, 64)
		b = strconv.AppendInt(append(b, '/'), int64(e.Width), 10)
		b = strconv.AppendInt(append(b, 'x'), int64(e.Height), 10)
	}
	return append(b, '\n')
}

// ErrBadDesc reports an unparseable DESCRIBE body.
var ErrBadDesc = errors.New("session: malformed clip description")

// ParseClipDesc parses a DESCRIBE body into d, replacing every field; on an
// error d holds what was parsed before it. The body is read in place, and
// the encodings are appended into d.Encodings' storage, so a caller that
// keeps one ClipDesc parses without allocating once that storage has grown —
// except for a title, which is copied out of the body unless it equals d's
// current one.
func ParseClipDesc(body []byte, d *ClipDesc) error {
	title := d.Title
	*d = ClipDesc{Encodings: d.Encodings[:0]}
	for rest, more := body, true; more; {
		var line []byte
		line, rest, more = bytes.Cut(rest, []byte("\n"))
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		key, val, ok := bytes.Cut(line, []byte("="))
		if !ok {
			return ErrBadDesc
		}
		switch string(key) {
		case "title":
			if d.Title = title; string(val) != title {
				d.Title = string(val)
			}
		case "duration_ms":
			ms, err := strconv.ParseInt(string(val), 10, 64)
			if err != nil {
				return ErrBadDesc
			}
			d.Duration = time.Duration(ms) * time.Millisecond
		case "scalable":
			d.Scalable = string(val) == "true"
		case "live":
			d.Live = string(val) == "true"
		case "enc":
			e, ok := parseEncoding(val)
			if !ok {
				return ErrBadDesc
			}
			d.Encodings = append(d.Encodings, e)
		}
	}
	if len(d.Encodings) == 0 || d.Duration <= 0 {
		return ErrBadDesc
	}
	return nil
}

// parseEncoding parses one enc= value, "total/audio/fps/WxH": exactly four
// '/' fields, the last split at its first 'x'.
func parseEncoding(v []byte) (e EncodingDesc, ok bool) {
	total, v, ok1 := bytes.Cut(v, []byte("/"))
	audio, v, ok2 := bytes.Cut(v, []byte("/"))
	fps, dims, ok3 := bytes.Cut(v, []byte("/"))
	w, h, ok4 := bytes.Cut(dims, []byte("x"))
	if !ok1 || !ok2 || !ok3 || !ok4 || bytes.IndexByte(dims, '/') >= 0 {
		return e, false
	}
	var errs [5]error
	e.TotalKbps, errs[0] = strconv.ParseFloat(string(total), 64)
	e.AudioKbps, errs[1] = strconv.ParseFloat(string(audio), 64)
	e.FrameRate, errs[2] = strconv.ParseFloat(string(fps), 64)
	e.Width, errs[3] = strconv.Atoi(string(w))
	e.Height, errs[4] = strconv.Atoi(string(h))
	return e, errs == [5]error{}
}

// DataHello is the first message on a TCP data connection, binding it to the
// RTSP session negotiated on the control connection.
type DataHello struct {
	SessionID string
}

// TransitCopy implements netsim.Transferable (matched structurally). A hello
// is never written after it is sent, so it crosses a shard boundary as
// itself.
func (h *DataHello) TransitCopy(*netsim.TransitPool) any { return h }

// Codec is the combined wire codec for live-socket mode: a one-byte channel
// tag followed by the channel's own encoding.
type Codec struct{}

// Channel tags.
const (
	chanRTSP  = 0x01
	chanRDT   = 0x02
	chanHello = 0x03
)

// EncodeTo implements transport.Codec: it appends the frame to a
// caller-owned writer, so the live-socket send path reuses one buffer per
// connection instead of allocating per packet. On error the writer is rolled
// back to its length at entry.
func (Codec) EncodeTo(w *packet.Writer, payload any) error {
	base := w.Len()
	switch m := payload.(type) {
	case *rtsp.Message:
		w.U8(chanRTSP)
		w.Raw(m.Marshal())
		return nil
	case *rdt.Packet:
		w.U8(chanRDT)
		if err := rdt.EncodeTo(w, m); err != nil {
			w.Truncate(base)
			return err
		}
		return nil
	case *DataHello:
		w.U8(chanHello)
		w.Raw([]byte(m.SessionID))
		return nil
	default:
		return fmt.Errorf("session: cannot encode %T", payload)
	}
}

// Decode implements transport.Codec.
func (Codec) Decode(data []byte) (any, error) {
	if len(data) == 0 {
		return nil, errors.New("session: empty frame")
	}
	switch data[0] {
	case chanRTSP:
		return rtsp.Parse(data[1:])
	case chanRDT:
		return rdt.Decode(data[1:])
	case chanHello:
		return &DataHello{SessionID: string(data[1:])}, nil
	default:
		return nil, fmt.Errorf("session: unknown channel tag %#x", data[0])
	}
}

var _ transport.Codec = Codec{}

// DataPort is the server-side unconnected datagram endpoint, satisfied by
// both transport.UDPPort (simulation) and transport.RealUDPPort (sockets).
type DataPort interface {
	// ConnFor returns a send-only Conn view of the port talking to raddr,
	// with the destination resolved once: the port's one way to send.
	ConnFor(raddr string) transport.Conn
	LocalAddr() string
	Close() error
}

// Net abstracts endpoint creation on one host so engines are agnostic to
// simulation vs. real sockets.
type Net interface {
	// ListenTCP accepts message connections on port.
	ListenTCP(port int, accept func(transport.Conn)) (stop func(), err error)
	// ListenUDP binds a datagram port, delivering (sender, payload, size).
	ListenUDP(port int, recv func(from string, payload any, size int)) (DataPort, error)
	// DialTCP opens a message connection; cb fires exactly once. It returns
	// the dialing socket's local address where that is known before the
	// handshake (the simulator, whose checkpoints name a pending dial by it),
	// else "".
	DialTCP(addr string, cb func(transport.Conn, error)) (laddr string)
	// DialUDP returns a connected datagram Conn (usable immediately).
	DialUDP(addr string) (transport.Conn, error)
	// Addr renders "this host, that port" for advertisement to the peer.
	Addr(port int) string
}

// SimNet implements Net over the simulator's per-host Stack.
type SimNet struct{ Stack *transport.Stack }

// ListenTCP implements Net.
func (n SimNet) ListenTCP(port int, accept func(transport.Conn)) (func(), error) {
	return n.Stack.Listen(port, accept), nil
}

// ListenUDP implements Net.
func (n SimNet) ListenUDP(port int, recv func(string, any, int)) (DataPort, error) {
	return n.Stack.ListenUDP(port, recv), nil
}

// DialTCP implements Net.
func (n SimNet) DialTCP(addr string, cb func(transport.Conn, error)) string {
	return n.Stack.DialTCP(addr, cb)
}

// DialUDP implements Net.
func (n SimNet) DialUDP(addr string) (transport.Conn, error) { return n.Stack.DialUDP(addr), nil }

// Addr implements Net.
func (n SimNet) Addr(port int) string { return n.Stack.Host() + ":" + strconv.Itoa(port) }
