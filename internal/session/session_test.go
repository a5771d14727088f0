package session

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"realtracer/internal/media"
	"realtracer/internal/rdt"
	"realtracer/internal/rtsp"
)

// roundTripClip is the clip TestClipDescRoundTrip describes; its DESCRIBE
// body also seeds FuzzParseClipDesc.
func roundTripClip() *media.Clip {
	return media.GenerateClip("rtsp://h/c.rm", "news-1", media.ContentNews, 3*time.Minute, 20, 350, 1)
}

func TestClipDescRoundTrip(t *testing.T) {
	d := DescFromClip(roundTripClip())
	got, err := ParseClipDesc(d.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Title != d.Title || got.Duration != d.Duration || got.Scalable != d.Scalable {
		t.Fatalf("scalar fields mismatch: %+v vs %+v", got, d)
	}
	if len(got.Encodings) != len(d.Encodings) {
		t.Fatalf("encodings %d vs %d", len(got.Encodings), len(d.Encodings))
	}
	for i := range got.Encodings {
		if got.Encodings[i] != d.Encodings[i] {
			t.Fatalf("encoding %d mismatch: %+v vs %+v", i, got.Encodings[i], d.Encodings[i])
		}
	}
}

// marshalRef is ClipDesc.Marshal as it stood while it rendered each line
// with fmt, kept verbatim as the oracle for the bytes of a DESCRIBE body.
func marshalRef(d ClipDesc) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "title=%s\n", d.Title)
	fmt.Fprintf(&b, "duration_ms=%d\n", d.Duration.Milliseconds())
	fmt.Fprintf(&b, "scalable=%t\n", d.Scalable)
	fmt.Fprintf(&b, "live=%t\n", d.Live)
	for _, e := range d.Encodings {
		fmt.Fprintf(&b, "enc=%g/%g/%g/%dx%d\n", e.TotalKbps, e.AudioKbps, e.FrameRate, e.Width, e.Height)
	}
	return []byte(b.String())
}

// TestClipDescMarshalBytes: the DESCRIBE body is wire bytes (cmd/realserver
// sends them to real sockets, a snapshot holds them), so appending the fields
// must write what formatting them wrote — on every library clip's shape and
// on floats and integers of every magnitude and sign.
func TestClipDescMarshalBytes(t *testing.T) {
	check := func(d ClipDesc) bool {
		got, want := d.Marshal(), marshalRef(d)
		if !bytes.Equal(got, want) {
			t.Errorf("Marshal wrote %q, the reference %q", got, want)
		}
		return !t.Failed()
	}
	for _, clip := range media.GenerateLibrary("cnn.us", 40, 7).Clips {
		check(DescFromClip(clip))
	}
	check(ClipDesc{})
	check(ClipDesc{Title: "live=\nfeed", Duration: -1500 * time.Microsecond, Live: true,
		Encodings: []EncodingDesc{{TotalKbps: 1e21, AudioKbps: 1e-7, FrameRate: 7.5, Width: -1, Height: 1 << 40},
			{TotalKbps: math.Inf(1), AudioKbps: math.Inf(-1), FrameRate: math.NaN()}}})
	if err := quick.Check(func(title string, dur int64, scalable, live bool, encs []EncodingDesc) bool {
		return check(ClipDesc{Title: title, Duration: time.Duration(dur), Scalable: scalable, Live: live, Encodings: encs})
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameRateFor(t *testing.T) {
	clip := media.GenerateClip("u", "t", media.ContentNews, time.Minute, 20, 350, 1)
	d := DescFromClip(clip)
	if d.FrameRateFor(34) != 10 {
		t.Fatalf("34Kbps fps=%v want 10", d.FrameRateFor(34))
	}
	if d.FrameRateFor(999) != 0 {
		t.Fatal("unknown rate should be 0")
	}
}

func TestParseClipDescErrors(t *testing.T) {
	cases := []string{
		"",
		"title=x\n",                        // no encodings, no duration
		"duration_ms=abc\nenc=1/2/3/4x5\n", // bad duration
		"duration_ms=1000\nenc=bad\n",      // bad encoding
		"duration_ms=1000\nnot-a-kv\n",     // bad line
		"duration_ms=1000\nenc=1/2/3/nox\n",
	}
	for _, c := range cases {
		if _, err := ParseClipDesc([]byte(c)); err == nil {
			t.Errorf("accepted %q", c)
		}
	}
}

// parseClipDescRef is ParseClipDesc as it stood while it split the body and
// each line with strings.Split, kept verbatim as the oracle the walking
// parser is checked against.
func parseClipDescRef(body []byte) (ClipDesc, error) {
	var d ClipDesc
	for _, line := range strings.Split(string(body), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		kv := strings.SplitN(line, "=", 2)
		if len(kv) != 2 {
			return d, ErrBadDesc
		}
		switch kv[0] {
		case "title":
			d.Title = kv[1]
		case "duration_ms":
			ms, err := strconv.ParseInt(kv[1], 10, 64)
			if err != nil {
				return d, ErrBadDesc
			}
			d.Duration = time.Duration(ms) * time.Millisecond
		case "scalable":
			d.Scalable = kv[1] == "true"
		case "live":
			d.Live = kv[1] == "true"
		case "enc":
			var e EncodingDesc
			var dims string
			parts := strings.Split(kv[1], "/")
			if len(parts) != 4 {
				return d, ErrBadDesc
			}
			var err error
			if e.TotalKbps, err = strconv.ParseFloat(parts[0], 64); err != nil {
				return d, ErrBadDesc
			}
			if e.AudioKbps, err = strconv.ParseFloat(parts[1], 64); err != nil {
				return d, ErrBadDesc
			}
			if e.FrameRate, err = strconv.ParseFloat(parts[2], 64); err != nil {
				return d, ErrBadDesc
			}
			dims = parts[3]
			wh := strings.SplitN(dims, "x", 2)
			if len(wh) != 2 {
				return d, ErrBadDesc
			}
			if e.Width, err = strconv.Atoi(wh[0]); err != nil {
				return d, ErrBadDesc
			}
			if e.Height, err = strconv.Atoi(wh[1]); err != nil {
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

// FuzzParseClipDesc is the differential check of the DESCRIBE body parser:
// on every input, accepted or refused, ParseClipDesc must return the value
// and the error the reference parser returns. Seeded with a real body, the
// refusals of TestParseClipDescErrors and the shapes the two ways of
// splitting could disagree on.
func FuzzParseClipDesc(f *testing.F) {
	f.Add(DescFromClip(roundTripClip()).Marshal())
	for _, body := range []string{
		"", "title=x\n", "duration_ms=abc\nenc=1/2/3/4x5\n", "duration_ms=1000\nenc=bad\n",
		"duration_ms=1000\nnot-a-kv\n", "duration_ms=1000\nenc=1/2/3/nox\n",
		"duration_ms=1000\nenc=1/2/3/4x5/6\n", "duration_ms=1000\nenc=1/2/3\n", "duration_ms=1000\nenc=1/2/3/4x5x6\n",
		"duration_ms=1000\nenc=1//3/4x5\n", " duration_ms=1000 \r\n\n\tenc=1e3/NaN/-0/+4x-5\r", "title=a=b\nduration_ms=1\nenc=1/2/3/4x5",
		"duration_ms=1\nenc=1/2/3/x\n", "duration_ms=1\nenc=/1/2/3x4\nlive=true\nscalable=TRUE\n",
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := ParseClipDesc(body)
		want, wantErr := parseClipDescRef(body)
		if err != wantErr {
			t.Fatalf("ParseClipDesc(%q): error %v, the reference parser says %v", body, err, wantErr)
		}
		// NaN != NaN, so compare what the floats print as.
		if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want); g != w || len(got.Encodings) != len(want.Encodings) {
			t.Fatalf("ParseClipDesc(%q) = %s, the reference parser says %s", body, g, w)
		}
	})
}

func TestCodecRoundTripRTSP(t *testing.T) {
	m := rtsp.NewRequest(rtsp.MethodPlay, "rtsp://h/c", 5)
	m.Set("Session", "sess-9")
	b, err := Codec{}.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Codec{}.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	gm, ok := got.(*rtsp.Message)
	if !ok || gm.Method != rtsp.MethodPlay || gm.Get("Session") != "sess-9" {
		t.Fatalf("rtsp round trip failed: %#v", got)
	}
}

func TestCodecRoundTripRDT(t *testing.T) {
	p := &rdt.Packet{Kind: rdt.TypeData, Data: &rdt.Data{Stream: rdt.StreamVideo, Seq: 3, PadLen: 50}}
	b, err := Codec{}.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Codec{}.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	gp, ok := got.(*rdt.Packet)
	if !ok || gp.Kind != rdt.TypeData || gp.Data.Seq != 3 || gp.Data.PayloadLen() != 50 {
		t.Fatalf("rdt round trip failed: %#v", got)
	}
}

func TestCodecRoundTripHello(t *testing.T) {
	b, err := Codec{}.Encode(&DataHello{SessionID: "sess-42"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Codec{}.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if h, ok := got.(*DataHello); !ok || h.SessionID != "sess-42" {
		t.Fatalf("hello round trip failed: %#v", got)
	}
}

func TestCodecErrors(t *testing.T) {
	if _, err := (Codec{}).Encode(42); err == nil {
		t.Fatal("unknown payload type accepted")
	}
	if _, err := (Codec{}).Decode(nil); err == nil {
		t.Fatal("empty frame accepted")
	}
	if _, err := (Codec{}).Decode([]byte{0x7F, 1, 2}); err == nil {
		t.Fatal("unknown channel tag accepted")
	}
}

// Property: any well-formed description round-trips.
func TestPropertyClipDescRoundTrip(t *testing.T) {
	f := func(durSec uint16, scalable bool, encCount uint8) bool {
		if durSec == 0 {
			durSec = 1
		}
		d := ClipDesc{Title: "clip", Duration: time.Duration(durSec) * time.Second, Scalable: scalable}
		n := int(encCount%5) + 1
		ladder := media.SureStreamLadder()
		for i := 0; i < n; i++ {
			e := ladder[i%len(ladder)]
			d.Encodings = append(d.Encodings, EncodingDesc{
				TotalKbps: e.TotalKbps, AudioKbps: e.AudioKbps, FrameRate: e.FrameRate,
				Width: e.Width, Height: e.Height,
			})
		}
		got, err := ParseClipDesc(d.Marshal())
		if err != nil || got.Duration != d.Duration || len(got.Encodings) != n {
			return false
		}
		return got.Scalable == scalable
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
