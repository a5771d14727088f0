// Package session holds the protocol pieces shared by the server and player
// engines: the clip description exchanged in DESCRIBE, the data-channel
// hello that binds a TCP data connection to its RTSP session, the combined
// wire codec used by the real-socket transports, and the Net abstraction
// that lets the same engine code run over the simulator or over OS sockets.
package session

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
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

// ParseClipDesc parses a DESCRIBE body.
func ParseClipDesc(body []byte) (ClipDesc, error) {
	var d ClipDesc
	for rest, more := string(body), true; more; {
		var line string
		line, rest, more = strings.Cut(rest, "\n")
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return d, ErrBadDesc
		}
		switch key {
		case "title":
			d.Title = val
		case "duration_ms":
			ms, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return d, ErrBadDesc
			}
			d.Duration = time.Duration(ms) * time.Millisecond
		case "scalable":
			d.Scalable = val == "true"
		case "live":
			d.Live = val == "true"
		case "enc":
			e, ok := parseEncoding(val)
			if !ok {
				return d, ErrBadDesc
			}
			d.Encodings = append(d.Encodings, e)
		}
	}
	if len(d.Encodings) == 0 || d.Duration <= 0 {
		return d, ErrBadDesc
	}
	return d, nil
}

// parseEncoding parses one enc= value, "total/audio/fps/WxH": exactly four
// '/' fields, the last split at its first 'x'.
func parseEncoding(v string) (e EncodingDesc, ok bool) {
	total, v, ok1 := strings.Cut(v, "/")
	audio, v, ok2 := strings.Cut(v, "/")
	fps, dims, ok3 := strings.Cut(v, "/")
	w, h, ok4 := strings.Cut(dims, "x")
	if !ok1 || !ok2 || !ok3 || !ok4 || strings.Contains(dims, "/") {
		return e, false
	}
	var errs [5]error
	e.TotalKbps, errs[0] = strconv.ParseFloat(total, 64)
	e.AudioKbps, errs[1] = strconv.ParseFloat(audio, 64)
	e.FrameRate, errs[2] = strconv.ParseFloat(fps, 64)
	e.Width, errs[3] = strconv.Atoi(w)
	e.Height, errs[4] = strconv.Atoi(h)
	return e, errs == [5]error{}
}

// DataHello is the first message on a TCP data connection, binding it to the
// RTSP session negotiated on the control connection.
type DataHello struct {
	SessionID string

	transit bool // true on a leased shard-transit copy; false on originals
}

// helloTransitClass is the pool slot for DataHello transit snapshots.
var helloTransitClass = netsim.RegisterTransitClass()

// TransitCopy returns a pooled snapshot for shard transit
// (netsim.Transferable, matched structurally). The hello is immutable in
// practice; the copy keeps the value-semantics-at-the-wire contract uniform.
func (h *DataHello) TransitCopy(tp *netsim.TransitPool) any {
	var cp *DataHello
	if v := tp.Get(helloTransitClass); v != nil {
		cp = v.(*DataHello)
	} else {
		cp = &DataHello{}
	}
	cp.SessionID = h.SessionID
	cp.transit = true
	return cp
}

// TransitRelease implements netsim.TransitReleasable; a no-op on originals.
func (h *DataHello) TransitRelease(tp *netsim.TransitPool) {
	if !h.transit {
		return
	}
	h.transit = false
	tp.Put(helloTransitClass, h)
}

// Codec is the combined wire codec for live-socket mode: a one-byte channel
// tag followed by the channel's own encoding.
type Codec struct{}

// Channel tags.
const (
	chanRTSP  = 0x01
	chanRDT   = 0x02
	chanHello = 0x03
)

// Encode implements transport.Codec.
func (Codec) Encode(payload any) ([]byte, error) {
	switch m := payload.(type) {
	case *rtsp.Message:
		return append([]byte{chanRTSP}, m.Marshal()...), nil
	case *rdt.Packet:
		b, err := rdt.Encode(m)
		if err != nil {
			return nil, err
		}
		return append([]byte{chanRDT}, b...), nil
	case *DataHello:
		return append([]byte{chanHello}, []byte(m.SessionID)...), nil
	default:
		return nil, fmt.Errorf("session: cannot encode %T", payload)
	}
}

// EncodeTo implements transport.WriterCodec: it appends the frame to a
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
	SendTo(addr string, payload any, size int) error
	// ConnFor returns a send-only Conn view of the port talking to raddr,
	// with the destination resolved once — the per-session fast path.
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
