package media

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func testClip(min, max float64) *Clip {
	return GenerateClip("rtsp://h/c.rm", "t", ContentNews, 2*time.Minute, min, max, 42)
}

// encodingFor is the rung the server would pick for a maxKbps request.
func encodingFor(c *Clip, maxKbps float64) Encoding {
	return c.Encodings[c.EncodingIndexFor(maxKbps)]
}

func TestLadderSelection(t *testing.T) {
	c := testClip(20, 350)
	if len(c.Encodings) != 6 {
		t.Fatalf("full ladder should have 6 rungs, got %d", len(c.Encodings))
	}
	if encodingFor(c, 100).TotalKbps != 80 {
		t.Fatalf("EncodingIndexFor(100) picks %v want 80", encodingFor(c, 100).TotalKbps)
	}
	if encodingFor(c, 5).TotalKbps != 20 {
		t.Fatal("below-minimum request should fall back to lowest rung")
	}
	if encodingFor(c, 9999).TotalKbps != 350 {
		t.Fatal("above-maximum request should pick top rung")
	}
	if c.MaxEncoding().TotalKbps != 350 {
		t.Fatal("MaxEncoding wrong")
	}
}

func TestLadderFloor(t *testing.T) {
	c := testClip(80, 350)
	if c.Encodings[0].TotalKbps != 80 {
		t.Fatalf("floor not applied: lowest=%v", c.Encodings[0].TotalKbps)
	}
	// A modem asking for 34 Kbps still gets the 80 Kbps rung — the
	// broadband-only-clip situation behind the slideshow playouts.
	if encodingFor(c, 34).TotalKbps != 80 {
		t.Fatal("sub-floor request should serve lowest available rung")
	}
}

func TestDegenerateRange(t *testing.T) {
	c := GenerateClip("u", "t", ContentNews, time.Minute, 500, 600, 1)
	if len(c.Encodings) != 1 {
		t.Fatalf("degenerate range should carry one rung, got %d", len(c.Encodings))
	}
}

func TestFrameSourceMediaTimeMonotone(t *testing.T) {
	fs := NewFrameSource(testClip(20, 350), testClip(20, 350).Encodings[3])
	var last time.Duration = -1
	n := 0
	for {
		f, ok := fs.Next()
		if !ok {
			break
		}
		if f.MediaTime < last {
			t.Fatalf("media time went backwards at frame %d: %v < %v", n, f.MediaTime, last)
		}
		last = f.MediaTime
		n++
	}
	if n == 0 {
		t.Fatal("no frames generated")
	}
	if last < 2*time.Minute-2*time.Second {
		t.Fatalf("clip ended early at %v", last)
	}
}

func TestFrameSourceRateConvergence(t *testing.T) {
	clip := testClip(20, 350)
	for _, enc := range clip.Encodings {
		fs := NewFrameSource(clip, enc)
		var bits float64
		for {
			f, ok := fs.Next()
			if !ok {
				break
			}
			bits += float64(f.Size) * 8
		}
		wantBits := enc.TotalKbps * 1000 * clip.Duration.Seconds()
		ratio := bits / wantBits
		// The scene-dependent frame rate intentionally trims low-action
		// stretches, so the realized rate runs somewhat under target.
		if ratio < 0.55 || ratio > 1.25 {
			t.Errorf("encoding %v realized %.2fx of target rate", enc.TotalKbps, ratio)
		}
	}
}

func TestKeyframeCadence(t *testing.T) {
	clip := testClip(20, 350)
	enc := clip.Encodings[1] // 34 Kbps, KeyframeEvery 20
	fs := NewFrameSource(clip, enc)
	videoIdx := 0
	for {
		f, ok := fs.Next()
		if !ok {
			break
		}
		if !f.Video {
			continue
		}
		wantKey := videoIdx%enc.KeyframeEvery == 0
		if f.Keyframe != wantKey {
			t.Fatalf("keyframe flag wrong at video frame %d", videoIdx)
		}
		if f.Keyframe && f.Size <= 0 {
			t.Fatal("keyframe with no size")
		}
		videoIdx++
	}
}

func TestKeyframesLargerThanDeltas(t *testing.T) {
	clip := testClip(20, 350)
	fs := NewFrameSource(clip, clip.Encodings[2])
	var keySum, deltaSum, keyN, deltaN float64
	for {
		f, ok := fs.Next()
		if !ok {
			break
		}
		if !f.Video {
			continue
		}
		if f.Keyframe {
			keySum += float64(f.Size)
			keyN++
		} else {
			deltaSum += float64(f.Size)
			deltaN++
		}
	}
	if keySum/keyN < 1.5*(deltaSum/deltaN) {
		t.Fatalf("keyframes (%f) not meaningfully larger than deltas (%f)", keySum/keyN, deltaSum/deltaN)
	}
}

func TestFrameSourceDeterministic(t *testing.T) {
	clip := testClip(20, 350)
	a := NewFrameSource(clip, clip.Encodings[0])
	b := NewFrameSource(clip, clip.Encodings[0])
	for i := 0; i < 500; i++ {
		fa, oka := a.Next()
		fb, okb := b.Next()
		if oka != okb || fa != fb {
			t.Fatalf("same seed diverged at frame %d", i)
		}
		if !oka {
			break
		}
	}
}

func TestNewFrameSourceAtResumes(t *testing.T) {
	clip := testClip(20, 350)
	enc := clip.Encodings[4]
	fs := &FrameSource{}
	fs.ResetAt(clip, enc, 30*time.Second)
	f, ok := fs.Next()
	if !ok {
		t.Fatal("resumed source empty")
	}
	if f.MediaTime < 30*time.Second {
		t.Fatalf("resumed source starts at %v, want >= 30s", f.MediaTime)
	}
	if f.MediaTime > 32*time.Second {
		t.Fatalf("resumed source overshoots: %v", f.MediaTime)
	}
}

func TestPeekDoesNotConsume(t *testing.T) {
	clip := testClip(20, 350)
	fs := NewFrameSource(clip, clip.Encodings[0])
	p1, _ := fs.Peek()
	p2, _ := fs.Peek()
	n, _ := fs.Next()
	if p1 != p2 || p1 != n {
		t.Fatal("Peek consumed or diverged from Next")
	}
}

func TestAudioVideoInterleaved(t *testing.T) {
	clip := testClip(20, 350)
	fs := NewFrameSource(clip, clip.Encodings[0])
	var audio, video int
	for i := 0; i < 200; i++ {
		f, ok := fs.Next()
		if !ok {
			break
		}
		if f.Video {
			video++
		} else {
			audio++
		}
	}
	if audio == 0 || video == 0 {
		t.Fatalf("tracks not interleaved: audio=%d video=%d", audio, video)
	}
}

func TestActionProfileByGenre(t *testing.T) {
	// Sports clips should sustain a higher realized frame rate than news at
	// the same encoding.
	rate := func(content ContentType) float64 {
		clip := GenerateClip("u", "t", content, 3*time.Minute, 20, 350, 7)
		fs := NewFrameSource(clip, clip.Encodings[5])
		frames := 0
		for {
			f, ok := fs.Next()
			if !ok {
				break
			}
			if f.Video {
				frames++
			}
		}
		return float64(frames) / clip.Duration.Seconds()
	}
	news, sports := rate(ContentNews), rate(ContentSports)
	if sports <= news {
		t.Fatalf("sports fps %f should exceed news fps %f", sports, news)
	}
}

func TestGenerateLibrary(t *testing.T) {
	lib := GenerateLibrary("host", 20, 3)
	if len(lib.Clips) != 20 {
		t.Fatalf("clips=%d", len(lib.Clips))
	}
	seen := map[string]bool{}
	for _, c := range lib.Clips {
		if seen[c.URL] {
			t.Fatalf("duplicate URL %s", c.URL)
		}
		seen[c.URL] = true
		if lib.Lookup(c.URL) != c {
			t.Fatal("lookup broken")
		}
		if len(c.Encodings) == 0 {
			t.Fatal("clip with no encodings")
		}
		if c.Duration < time.Minute {
			t.Fatalf("clip too short: %v", c.Duration)
		}
	}
	if lib.Lookup("rtsp://host/nope.rm") != nil {
		t.Fatal("lookup of missing URL should be nil")
	}
}

func TestGenerateLibraryDeterministic(t *testing.T) {
	a := GenerateLibrary("h", 10, 9)
	b := GenerateLibrary("h", 10, 9)
	for i := range a.Clips {
		if a.Clips[i].URL != b.Clips[i].URL || a.Clips[i].Seed != b.Clips[i].Seed ||
			len(a.Clips[i].Encodings) != len(b.Clips[i].Encodings) {
			t.Fatal("library generation not deterministic")
		}
	}
}

// Property: the selected encoding never exceeds the request unless the
// request is below the clip floor.
func TestPropertyEncodingForBound(t *testing.T) {
	f := func(req uint16) bool {
		c := testClip(20, 350)
		e := encodingFor(c, float64(req))
		if float64(req) >= 20 {
			return e.TotalKbps <= float64(req)
		}
		return e.TotalKbps == 20
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVideoKbpsSplit(t *testing.T) {
	for _, e := range SureStreamLadder() {
		if e.VideoKbps() <= 0 || e.VideoKbps() >= e.TotalKbps {
			t.Fatalf("audio/video split broken for %v", e.TotalKbps)
		}
	}
}

func TestCeil(t *testing.T) {
	cases := []struct{ a, b, want int }{{10, 3, 4}, {9, 3, 3}, {1, 1400, 1}, {0, 5, 0}, {5, 0, 0}}
	for _, c := range cases {
		if got := Ceil(c.a, c.b); got != c.want {
			t.Errorf("Ceil(%d,%d)=%d want %d", c.a, c.b, got, c.want)
		}
	}
}

// reseedingSource is FrameSource as it stood while every Reset reseeded a
// math/rand source from the clip's seed and laid the scenes out again, kept
// as the oracle for the source that reads the clip's scenes.
type reseedingSource struct {
	FrameSource
	rng *rand.Rand
}

func (fs *reseedingSource) Reset(clip *Clip, enc Encoding) {
	fs.clip, fs.enc = clip, enc
	if fs.rng == nil {
		fs.rng = rand.New(rand.NewSource(clip.Seed))
	} else {
		fs.rng.Seed(clip.Seed)
	}
	fs.scenes = fs.scenes[:0]
	fs.sceneIdx, fs.videoIdx = 0, 0
	fs.videoAt, fs.audioAt = 0, 0
	meanAction := map[ContentType]float64{
		ContentNews:   0.30,
		ContentSports: 0.75,
		ContentMusic:  0.55,
		ContentMovie:  0.65,
	}[clip.Content]
	var t time.Duration
	for t < clip.Duration {
		length := time.Duration(3+fs.rng.Intn(10)) * time.Second
		t += length
		action := meanAction + fs.rng.NormFloat64()*0.2
		if action < 0.05 {
			action = 0.05
		}
		if action > 1 {
			action = 1
		}
		fs.scenes = append(fs.scenes, scene{until: t, action: action})
	}
}

func (fs *reseedingSource) ResetAt(clip *Clip, enc Encoding, t time.Duration) {
	fs.Reset(clip, enc)
	for {
		f, ok := fs.Peek()
		if !ok || f.MediaTime >= t {
			break
		}
		fs.Next()
	}
}

// TestFrameSourceMatchesReseedingSource: laying a clip's scenes out once,
// when the clip is generated, must leave every frame where reseeding on
// every Reset put it — for every clip of a library, at every encoding,
// resumed anywhere from the start to past the end, on a source recycled
// across all of them as a server's pooled one is.
func TestFrameSourceMatchesReseedingSource(t *testing.T) {
	var got FrameSource
	var want reseedingSource
	clips := GenerateLibrary("cnn.us", 40, 7).Clips
	live := GenerateClip("rtsp://cnn.us/live.rm", "live", ContentSports, 90*time.Second, 20, 350, 3)
	live.Live = true
	clips = append(clips, live)
	for _, clip := range clips {
		for _, enc := range clip.Encodings {
			for _, at := range []time.Duration{0, 1, 250 * time.Millisecond, 7 * time.Second, 33333 * time.Millisecond,
				clip.Duration / 2, clip.Duration - time.Second, clip.Duration, clip.Duration + time.Minute} {
				got.ResetAt(clip, enc, at)
				want.ResetAt(clip, enc, at)
				for n := 0; ; n++ {
					g, gok := got.Next()
					w, wok := want.Next()
					if g != w || gok != wok {
						t.Fatalf("%s at %v kbps, resumed at %v: frame %d is %+v (%v), the reseeding source's %+v (%v)",
							clip.URL, enc.TotalKbps, at, n, g, gok, w, wok)
					}
					if !gok {
						break
					}
				}
			}
		}
	}
}
