// Package tracer implements the RealTracer client: it walks a user's
// playlist, plays each clip with the player engine, converts the engine's
// statistics into trace records, and solicits a quality rating after each
// watched clip — the instrumented-player half of the study (Section III.A).
package tracer

import (
	"math/rand"
	"time"

	"realtracer/internal/geo"
	"realtracer/internal/netsim"
	"realtracer/internal/player"
	"realtracer/internal/rdt"
	"realtracer/internal/session"
	"realtracer/internal/trace"
	"realtracer/internal/transport"
	"realtracer/internal/vclock"
)

// Entry is one playlist item.
type Entry struct {
	URL         string
	ControlAddr string
	Site        geo.ServerSite
}

// Config parameterizes one RealTracer run (one user, one playlist pass).
type Config struct {
	Clock vclock.Clock
	Net   session.Net
	User  *geo.User
	// Playlist is walked sequentially from the top, like the real tool.
	Playlist []Entry
	// PlayFor is per-clip playout length (RealTracer default: 1 minute).
	PlayFor time.Duration
	// Preroll overrides the player's initial buffer depth (0 = default);
	// exposed for the buffering ablation.
	Preroll time.Duration
	// Rand drives per-clip protocol fallback and the inter-clip think time.
	Rand *rand.Rand
	// SelectServer, when set, re-homes each playlist entry just before it
	// plays: the open-loop world installs a server-selection policy here
	// so a clip replicated across mirror sites is fetched from the site
	// the policy picks (by RTT, load, or rotation). Nil plays every entry
	// from its home site, exactly like the original tool.
	SelectServer func(entry Entry) Entry
	// Rate is the rating model hook: given the record of a just-played
	// clip, return the user's 0-10 score. Called only for clips the user
	// chooses to rate.
	Rate func(rec *trace.Record) float64
	// OnRecord receives every per-clip record as it is produced; the record
	// is freshly allocated and the receiver's to keep.
	OnRecord func(rec *trace.Record)
	// OnFinished fires after the final clip.
	OnFinished func()
}

// Tracer runs one user's session. A Tracer owns a single player engine and
// a packet arena that it recycles clip after clip — and, via
// Reset, session after session — so a long churn of sessions through one
// Tracer stops allocating once its working set has grown.
type Tracer struct {
	cfg     Config
	idx     int
	played  int // successfully played clips (for rating budget)
	rated   int
	stopped bool

	// pl is the single player engine, built lazily on the first clip and
	// Reset for every clip after that. onDone is the bound method value
	// handed to the player once, instead of one closure per clip.
	pl     *player.Player
	onDone func(*player.Stats, error)

	// arena backs the packets every clip's player mints: one minted by an
	// earlier clip stays valid until its last reader releases it (rdt.Arena).
	arena rdt.Arena

	// pause is the armed inter-clip think-time timer; Abort cancels it so
	// a recycled Tracer leaves nothing behind on the clock.
	pause vclock.Handle

	// curEntry/curStarted carry the in-flight clip's identity to onDone
	// (fields instead of a fresh closure environment per clip).
	curEntry   Entry
	curStarted time.Duration
}

// New builds a Tracer.
func New(cfg Config) *Tracer {
	if cfg.PlayFor <= 0 {
		cfg.PlayFor = player.DefaultPlayFor
	}
	t := &Tracer{cfg: cfg}
	t.onDone = t.clipDone
	return t
}

// Reset rewires the Tracer for a fresh playlist pass, reusing the player,
// the arena and the session's config. Only the playlist changes between
// the sessions a pooled Tracer serves; everything else in Config — clock,
// net, user, RNG, hooks — is template-bound and stays. The caller must
// have stopped the previous pass first (Abort, or natural completion).
func (t *Tracer) Reset(playlist []Entry) {
	t.pause.Cancel()
	t.cfg.Playlist = playlist
	t.idx, t.played, t.rated = 0, 0, 0
	t.stopped = false
}

// Run starts walking the playlist.
func (t *Tracer) Run() { t.next() }

// Fire implements simclock.EventHandler: a Tracer armed directly on the
// clock starts its playlist walk. The world schedules session starts this
// way so the start events are plain data a checkpoint can carry.
func (t *Tracer) Fire(time.Duration) { t.next() }

// Stop abandons the playlist after the in-flight clip.
func (t *Tracer) Stop() { t.stopped = true }

// Abort hard-stops the session now: the armed inter-clip pause is
// cancelled and the in-flight player run is torn down without reporting.
// After Abort the Tracer schedules nothing and sends nothing — the state a
// pooled Tracer must reach before its template is recycled.
func (t *Tracer) Abort() {
	t.stopped = true
	t.pause.Cancel()
	if t.pl != nil {
		t.pl.Abort()
	}
}

// tracerArm is the pooled timer handler for the inter-clip pause: a
// pointer-conversion view of Tracer, so arming the timer allocates
// nothing.
type tracerArm Tracer

func (x *tracerArm) Fire(time.Duration) { (*Tracer)(x).next() }

// protocolFor models RealPlayer's transport auto-configuration: users whose
// environment forces TCP (firewalls and similar) always use it; the rest
// request UDP, with an occasional per-clip fallback to TCP (the mix behind
// Figure 16).
func (t *Tracer) protocolFor() transport.Protocol {
	if t.cfg.User.PreferTCP {
		return transport.TCP
	}
	if t.cfg.Rand.Float64() < 0.10 {
		return transport.TCP
	}
	return transport.UDP
}

// maxBandwidthFor is the RealPlayer "maximum bit rate" preference users set
// from their connection type. Modem users knew their modem: slow V.34
// hardware got the "28.8" setting (the 20 Kbps encoding), healthy V.90
// lines the "56k" setting (34 Kbps).
func (t *Tracer) maxBandwidthFor() float64 {
	switch t.cfg.User.Access {
	case netsim.AccessModem:
		if t.cfg.User.ModemKbps > 0 && t.cfg.User.ModemKbps < 36 {
			return 20
		}
		return 34
	case netsim.AccessDSLCable:
		return 350
	default:
		return 450
	}
}

func (t *Tracer) next() {
	if t.stopped || t.idx >= len(t.cfg.Playlist) {
		if t.cfg.OnFinished != nil {
			t.cfg.OnFinished()
		}
		return
	}
	entry := t.cfg.Playlist[t.idx]
	t.idx++
	if t.cfg.SelectServer != nil {
		entry = t.cfg.SelectServer(entry)
	}
	t.curEntry = entry
	t.curStarted = t.cfg.Clock.Now()

	cfg := player.Config{
		Clock:            t.cfg.Clock,
		Net:              t.cfg.Net,
		ControlAddr:      entry.ControlAddr,
		URL:              entry.URL,
		Protocol:         t.protocolFor(),
		MaxBandwidthKbps: t.maxBandwidthFor(),
		PlayFor:          t.cfg.PlayFor,
		Preroll:          t.cfg.Preroll,
		CPU:              player.PCClasses()[t.cfg.User.PCClass],
		Rand:             t.cfg.Rand,
		Arena:            &t.arena,
		OnDone:           t.onDone,
	}
	if t.pl == nil {
		t.pl = player.New(cfg)
	} else {
		t.pl.Reset(cfg)
	}
	t.pl.Start()
}

// clipDone is the player's OnDone: record the clip, maybe rate it, and
// schedule the next one after the think-time pause.
func (t *Tracer) clipDone(st *player.Stats, err error) {
	rec := t.recordFor(t.curEntry, st)
	rec.StartSec = t.curStarted.Seconds()
	rec.EndSec = t.cfg.Clock.Now().Seconds()
	t.maybeRate(rec)
	if t.cfg.OnRecord != nil {
		t.cfg.OnRecord(rec)
	}
	// Brief pause between clips: the rating dialog lingers up to
	// 10 s, plus human think time.
	pause := 2*time.Second + time.Duration(t.cfg.Rand.Intn(9000))*time.Millisecond
	t.pause = t.cfg.Clock.AfterHandler(pause, (*tracerArm)(t))
}

func (t *Tracer) recordFor(entry Entry, st *player.Stats) *trace.Record {
	u := t.cfg.User
	return &trace.Record{
		User:    u.Name,
		Country: u.Country,
		State:   u.State,
		Region:  geo.AnalysisUserRegion(u.Region).String(),
		Access:  u.Access.String(),
		PCClass: player.PCClasses()[u.PCClass].Name,

		ClipURL:       entry.URL,
		Server:        entry.Site.Name,
		ServerCountry: entry.Site.Country,
		ServerRegion:  geo.AnalysisServerRegion(entry.Site.Region).String(),

		Unavailable: st.Unavailable,
		Failed:      st.Failed,
		FailReason:  st.FailReason,
		Protocol:    st.Protocol.String(),

		EncodedKbps: st.EncodedKbps,
		EncodedFPS:  st.EncodedFPS,

		MeasuredKbps: st.MeasuredKbps,
		MeasuredFPS:  st.MeasuredFPS,
		JitterMs:     st.JitterMs,

		FramesPlayed:      st.FramesPlayed,
		FramesDroppedLate: st.FramesDroppedLate,
		FramesDroppedCPU:  st.FramesDroppedCPU,
		FramesLost:        st.FramesLost,
		FramesCorrupted:   st.FramesCorrupted,

		Rebuffers:      st.Rebuffers,
		RebufferTime:   st.RebufferTime,
		BufferingTime:  st.BufferingTime,
		CPUUtilization: st.CPUUtilization,
		Switches:       st.Switches,
	}
}

// maybeRate applies the user's rating budget: users were asked to watch and
// rate 3-10 clips; RealTracer solicited after every clip and moved on if no
// rating arrived. We model users front-loading their ratings.
func (t *Tracer) maybeRate(rec *trace.Record) {
	if rec.Unavailable || rec.Failed {
		return
	}
	t.played++
	if t.rated >= t.cfg.User.ClipsToRate || t.cfg.Rate == nil {
		return
	}
	rec.Rated = true
	rec.Rating = t.cfg.Rate(rec)
	t.rated++
}
