// Package media models RealVideo content: clips encoded with SureStream
// (one clip, several target-bandwidth encodings — paper Section II.C), the
// audio/video bandwidth split within each encoding, scene-dependent frame
// rates ("RealVideo adjusts the frame rate by keeping the frame rate up in
// high-action scenes, and reducing it in low-action scenes", Section V), and
// a deterministic synthetic clip-library generator standing in for the 98
// clips the study selected from 11 real servers.
package media

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"realtracer/internal/detrand"
)

// ContentType is the rough genre mix the authors drew from news/media sites.
type ContentType int

const (
	ContentNews ContentType = iota
	ContentSports
	ContentMusic
	ContentMovie
)

// String implements fmt.Stringer.
func (c ContentType) String() string {
	switch c {
	case ContentNews:
		return "news"
	case ContentSports:
		return "sports"
	case ContentMusic:
		return "music"
	case ContentMovie:
		return "movie"
	default:
		return fmt.Sprintf("ContentType(%d)", int(c))
	}
}

// Encoding is one SureStream stream: a complete (audio + video) encoding of
// the clip at a target bandwidth.
type Encoding struct {
	// TotalKbps is the encoding's target bandwidth.
	TotalKbps float64
	// AudioKbps is reserved for the audio codec; a 20 Kbps clip with a
	// 5 Kbps voice codec leaves 15 Kbps for video (Section II.C).
	AudioKbps float64
	// FrameRate is the encoded video frame rate in fps.
	FrameRate float64
	// Width and Height are the frame dimensions.
	Width, Height int
	// KeyframeEvery is the keyframe interval in frames.
	KeyframeEvery int
}

// VideoKbps is the bandwidth left for the video track.
func (e Encoding) VideoKbps() float64 { return e.TotalKbps - e.AudioKbps }

// Clip is one streamable video with its SureStream encodings.
type Clip struct {
	// URL identifies the clip on its server ("rtsp://host/path").
	URL string
	// Title is display-only.
	Title string
	// Content is the genre, which shapes the action profile.
	Content ContentType
	// Duration is the full media length.
	Duration time.Duration
	// Encodings is sorted ascending by TotalKbps: the SureStream set. A
	// generated clip's is a capped run of the shared ladder: read it, never
	// write it.
	Encodings []Encoding
	// ScalableVideo marks clips encoded with the Scalable Video Technology
	// option, letting the player degrade frame rate gracefully on slow
	// machines (Section II.C). Most clips have it.
	ScalableVideo bool
	// Live marks content captured and encoded in real time (a camera or TV
	// feed). Live frames do not exist until their capture time, so the
	// server cannot push media ahead of realtime — the structural
	// difference the paper's future-work section cites from [LH01].
	Live bool
	// Seed makes the clip's frame-size and scene randomness reproducible.
	Seed int64

	// scenes is the clip's action profile, a pure function of Content,
	// Duration and Seed, laid out on the clip's first playout (layout) and
	// only read after that — by every FrameSource playing the clip, on
	// whichever server: an open-loop world replicates one clip object to
	// every mirror, whatever shard each runs on.
	scenes     []scene
	scenesOnce sync.Once
}

// layout returns the clip's scenes, laying them out on first use.
func (c *Clip) layout() []scene {
	c.scenesOnce.Do(c.layScenes)
	return c.scenes
}

// EncodingIndexFor selects the best SureStream encoding not exceeding
// maxKbps, falling back to the lowest, and returns its index in Encodings.
// This is the server's stream-selection rule at session start and at every
// mid-playout switch.
func (c *Clip) EncodingIndexFor(maxKbps float64) int {
	idx := 0
	for i, e := range c.Encodings {
		if e.TotalKbps <= maxKbps {
			idx = i
		}
	}
	return idx
}

// MaxEncoding returns the highest-bandwidth encoding.
func (c *Clip) MaxEncoding() Encoding { return c.Encodings[len(c.Encodings)-1] }

// Frame is one unit of media data produced by a FrameSource.
type Frame struct {
	// Video is true for video frames, false for audio packets.
	Video bool
	// MediaTime is the presentation time from clip start.
	MediaTime time.Duration
	// Size is the encoded size in bytes.
	Size int
	// Keyframe marks video keyframes.
	Keyframe bool
}

// scene captures a stretch of the clip with a given action level in [0,1].
type scene struct {
	until  time.Duration
	action float64
}

// FrameSource deterministically generates the frame sequence of one clip at
// one encoding. The server drains it in media-time order; switching
// encodings mid-playout creates a new source resumed at the switch time.
type FrameSource struct {
	clip *Clip
	enc  Encoding

	scenes   []scene // the clip's, read-only
	sceneIdx int
	videoIdx int
	videoAt  time.Duration
	audioAt  time.Duration
}

// audioPacketInterval is how often audio packets are emitted.
const audioPacketInterval = 250 * time.Millisecond

// Reset repositions the source at media time zero for clip at enc. The
// source holds nothing of its own but the cursor: a recycled source is
// frame-for-frame identical to a new one.
func (fs *FrameSource) Reset(clip *Clip, enc Encoding) {
	*fs = FrameSource{clip: clip, enc: enc, scenes: clip.layout()}
}

// ResetAt is Reset fast-forwarded to media time t — the SureStream
// mid-playout switch on a pooled source.
func (fs *FrameSource) ResetAt(clip *Clip, enc Encoding, t time.Duration) {
	fs.Reset(clip, enc)
	for {
		f, ok := fs.Peek()
		if !ok || f.MediaTime >= t {
			break
		}
		fs.Next()
	}
}

// layScenes lays out the clip's action profile from its own seeded stream.
// Genre sets the mean action: sports and movies run hot, news runs cold.
func (c *Clip) layScenes() {
	meanAction := map[ContentType]float64{
		ContentNews:   0.30,
		ContentSports: 0.75,
		ContentMusic:  0.55,
		ContentMovie:  0.65,
	}[c.Content]
	rng := detrand.Plain(c.Seed)
	var t time.Duration
	for t < c.Duration {
		length := time.Duration(3+rng.Intn(10)) * time.Second
		t += length
		action := meanAction + rng.NormFloat64()*0.2
		if action < 0.05 {
			action = 0.05
		}
		if action > 1 {
			action = 1
		}
		c.scenes = append(c.scenes, scene{until: t, action: action})
	}
}

func (fs *FrameSource) actionAt(t time.Duration) float64 {
	for fs.sceneIdx < len(fs.scenes)-1 && fs.scenes[fs.sceneIdx].until <= t {
		fs.sceneIdx++
	}
	return fs.scenes[fs.sceneIdx].action
}

// Peek returns the next frame without consuming it. ok is false at end of
// clip.
func (fs *FrameSource) Peek() (Frame, bool) {
	f, _, ok := fs.next(false)
	return f, ok
}

// Next consumes and returns the next frame in media-time order (audio and
// video interleaved).
func (fs *FrameSource) Next() (Frame, bool) {
	f, _, ok := fs.next(true)
	return f, ok
}

func (fs *FrameSource) next(consume bool) (Frame, bool, bool) {
	videoDone := fs.videoAt >= fs.clip.Duration
	audioDone := fs.audioAt >= fs.clip.Duration
	if videoDone && audioDone {
		return Frame{}, false, false
	}
	// Emit whichever track is earliest.
	if audioDone || (!videoDone && fs.videoAt <= fs.audioAt) {
		f := fs.videoFrame()
		if consume {
			fs.advanceVideo(f)
		}
		return f, true, true
	}
	f := fs.audioFrame()
	if consume {
		fs.audioAt += audioPacketInterval
	}
	return f, true, true
}

// videoFrame sizes the frame so the long-run video rate matches the
// encoding: size = rate / fps, with keyframes ~3x larger than deltas and the
// budget balanced by a rolling credit.
func (fs *FrameSource) videoFrame() Frame {
	interval := fs.frameInterval(fs.videoAt)
	bitsPerFrame := fs.enc.VideoKbps() * 1000 * interval.Seconds()
	key := fs.enc.KeyframeEvery > 0 && fs.videoIdx%fs.enc.KeyframeEvery == 0
	// Keyframes are ~2.5x a nominal frame; delta frames shrink so the mean
	// stays at the budget: keyMult + (k-1)*deltaMult = k.
	const keyMult = 2.5
	mult := 1.0
	if k := fs.enc.KeyframeEvery; k > 1 {
		if key {
			mult = keyMult
		} else {
			mult = (float64(k) - keyMult) / float64(k-1)
		}
	}
	size := int(bitsPerFrame * mult / 8)
	if size < 60 {
		size = 60
	}
	return Frame{Video: true, MediaTime: fs.videoAt, Size: size, Keyframe: key}
}

// frameInterval returns the gap to the next video frame: the encoded rate
// modulated by scene action, as RealProducer does ("keeping the frame rate
// up in high-action scenes, and reducing it in low-action scenes").
func (fs *FrameSource) frameInterval(t time.Duration) time.Duration {
	action := fs.actionAt(t)
	// High action keeps the full frame rate; low action trims ~30 %.
	fps := fs.enc.FrameRate * (0.70 + 0.30*action)
	if fps < 1 {
		fps = 1
	}
	return time.Duration(float64(time.Second) / fps)
}

func (fs *FrameSource) advanceVideo(f Frame) {
	fs.videoIdx++
	fs.videoAt += fs.frameInterval(fs.videoAt)
}

func (fs *FrameSource) audioFrame() Frame {
	size := int(fs.enc.AudioKbps * 1000 * audioPacketInterval.Seconds() / 8)
	if size < 20 {
		size = 20
	}
	return Frame{Video: false, MediaTime: fs.audioAt, Size: size}
}

// Encoding returns the encoding the source is generating.
func (fs *FrameSource) Encoding() Encoding { return fs.enc }

// standard SureStream ladders, per RealProducer's 2001 target-audience
// presets (28k modem, 56k modem, single ISDN, dual ISDN, DSL/cable, T1).
// Keyframe intervals target ~2 s of media, the RealProducer default range —
// which also bounds how much video a single unrepaired loss can corrupt.
var surestreamLadder = []Encoding{
	{TotalKbps: 20, AudioKbps: 5, FrameRate: 7.5, Width: 176, Height: 132, KeyframeEvery: 15},
	{TotalKbps: 34, AudioKbps: 8, FrameRate: 10, Width: 176, Height: 132, KeyframeEvery: 20},
	{TotalKbps: 80, AudioKbps: 11, FrameRate: 15, Width: 240, Height: 180, KeyframeEvery: 30},
	{TotalKbps: 150, AudioKbps: 16, FrameRate: 15, Width: 320, Height: 240, KeyframeEvery: 30},
	{TotalKbps: 225, AudioKbps: 20, FrameRate: 20, Width: 320, Height: 240, KeyframeEvery: 40},
	{TotalKbps: 350, AudioKbps: 32, FrameRate: 30, Width: 320, Height: 240, KeyframeEvery: 60},
}

// SureStreamLadder returns a copy of the standard encoding ladder.
func SureStreamLadder() []Encoding {
	return append([]Encoding(nil), surestreamLadder...)
}

// GenerateClip builds one synthetic clip carrying the ladder rungs in
// [minKbps, maxKbps]. Content providers "select target bandwidths
// appropriate for their target audience" (Section II): a broadband-targeted
// clip often carried no modem encoding at all, and a modem-targeted clip no
// broadband one. A narrowband user requesting a broadband-only clip is
// served its lowest (still unsustainable) encoding — a major source of the
// slideshow-rate playouts in Figure 12.
func GenerateClip(url, title string, content ContentType, dur time.Duration, minKbps, maxKbps float64, seed int64) *Clip {
	c := new(Clip)
	c.generate(url, title, content, dur, minKbps, maxKbps, seed)
	return c
}

// generate fills c as GenerateClip describes.
func (c *Clip) generate(url, title string, content ContentType, dur time.Duration, minKbps, maxKbps float64, seed int64) {
	*c = Clip{
		URL:           url,
		Title:         title,
		Content:       content,
		Duration:      dur,
		Encodings:     ladderRange(minKbps, maxKbps),
		ScalableVideo: true,
		Seed:          seed,
	}
}

// ladderRange returns the ladder rungs in [minKbps, maxKbps] — a contiguous
// run, the ladder being sorted — as a sub-slice of the ladder itself, capped
// so that nothing can append into it. A degenerate range carries the single
// rung closest to minKbps.
func ladderRange(minKbps, maxKbps float64) []Encoding {
	lo, hi, best := -1, 0, 0
	for i, e := range surestreamLadder {
		if e.TotalKbps >= minKbps && e.TotalKbps <= maxKbps {
			if lo < 0 {
				lo = i
			}
			hi = i + 1
		}
		if e.TotalKbps <= minKbps {
			best = i
		}
	}
	if lo < 0 {
		lo, hi = best, best+1
	}
	return surestreamLadder[lo:hi:hi]
}

// Library is a set of clips hosted by one server.
type Library struct {
	Clips []*Clip
	byURL map[string]*Clip
}

// NewLibrary indexes clips by URL.
func NewLibrary(clips []*Clip) *Library {
	l := &Library{Clips: clips, byURL: make(map[string]*Clip, len(clips))}
	for _, c := range clips {
		l.byURL[c.URL] = c
	}
	return l
}

// Lookup returns the clip for url, or nil.
func (l *Library) Lookup(url string) *Clip { return l.byURL[url] }

// GenerateLibrary creates n clips for the named server host with a genre and
// bandwidth mix matching 2001 news/media sites: mostly modem-targeted
// content with a broadband minority.
func GenerateLibrary(host string, n int, seed int64) *Library {
	rng := detrand.Plain(seed)
	genres := []ContentType{ContentNews, ContentNews, ContentNews, ContentSports, ContentMusic, ContentMovie}
	// One backing array for the clips and one string for every URL and
	// title: a library costs a handful of allocations, not a few per clip.
	cells := make([]Clip, n)
	clips := make([]*Clip, n)
	var names strings.Builder
	names.Grow(n * (2*len(host) + 40)) // the rest of a URL and title, seven-digit numbers included
	ord := make([]byte, 0, 20)
	for i := range cells {
		content := genres[rng.Intn(len(genres))]
		// Target-audience floor: many 2001 clips carried no modem rung.
		var minKbps float64
		switch r := rng.Float64(); {
		case r < 0.30:
			minKbps = 20
		case r < 0.60:
			minKbps = 34
		case r < 0.85:
			minKbps = 80
		default:
			minKbps = 150
		}
		// Target-audience cap: half the clips stop at dual-ISDN rates; the
		// rest carry broadband encodings.
		var maxKbps float64
		switch r := rng.Float64(); {
		case r < 0.25:
			maxKbps = 80
		case r < 0.55:
			maxKbps = 150
		case r < 0.80:
			maxKbps = 225
		default:
			maxKbps = 350
		}
		if maxKbps < minKbps {
			maxKbps = minKbps
		}
		// Clip lengths: "even small clips lasting several minutes".
		dur := time.Duration(60+rng.Intn(420)) * time.Second
		// "rtsp://HOST/clipNNN.rm" and "HOST-GENRE-NNN", NNN zero-padded
		// to three digits. The builder never rewrites what it holds, so each
		// name is a slice of what it has built so far.
		ord = ord[:0]
		if i < 100 {
			ord = append(ord, '0')
		}
		if i < 10 {
			ord = append(ord, '0')
		}
		ord = strconv.AppendInt(ord, int64(i), 10)
		from := names.Len()
		names.WriteString("rtsp://")
		names.WriteString(host)
		names.WriteString("/clip")
		names.Write(ord)
		names.WriteString(".rm")
		url := names.String()[from:]
		from = names.Len()
		names.WriteString(host)
		names.WriteByte('-')
		names.WriteString(content.String())
		names.WriteByte('-')
		names.Write(ord)
		title := names.String()[from:]
		cells[i].generate(url, title, content, dur, minKbps, maxKbps, rng.Int63())
		clips[i] = &cells[i]
	}
	return NewLibrary(clips)
}

// The perceptual frame-rate thresholds the paper analyzes against (Section
// V).
const (
	SmoothFPS        = 15.0 // approximates full motion
	MinAcceptableFPS = 3.0  // below this: a slideshow
	VeryChoppyFPS    = 7.0
)

// Ceil is a tiny helper used by packetizers: integer ceiling division.
func Ceil(a, b int) int {
	if b <= 0 {
		return 0
	}
	return int(math.Ceil(float64(a) / float64(b)))
}
