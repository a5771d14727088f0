package tracer

import (
	"fmt"

	"realtracer/internal/player"
	"realtracer/internal/simclock"
	"realtracer/internal/snap"
	"realtracer/internal/transport"
	"realtracer/internal/vclock"
)

// Two event kinds belong to the tracer: the not-yet-started session (the
// world arms the Tracer itself at its start instant) and the inter-clip
// think-time pause.
func init() {
	simclock.RegisterEventKind("tracer.run", (*Tracer)(nil))
	simclock.RegisterEventKind("tracer.pause", (*tracerArm)(nil))
}

// Sync walks the tracer's session progress. The playlist, user and hooks
// are template state the world rebuilds deterministically from its Options;
// only the walk position, the in-flight clip's identity (which SelectServer
// may have re-homed) and the player engine are in the snapshot.
//
// Decoding overlays the walk onto a template-built Tracer (fresh from New
// with the same Config the original had, playlist installed). The arena
// restores empty: checkpointed packets and frames are carried by value
// elsewhere, so arena cells hold no restored state and refill as the session
// proceeds.
func (t *Tracer) Sync(c *snap.Codec, stack *transport.Stack, x *transport.SnapCtx) {
	c.Tag("tracer")
	c.Int(&t.idx)
	c.Int(&t.played)
	c.Int(&t.rated)
	c.Bool(&t.stopped)
	if c.Reading() && c.Err() == nil && (t.idx < 0 || t.idx > len(t.cfg.Playlist)) {
		c.Fail(fmt.Errorf("tracer: snapshot walk position (clip %d of %d) out of range", t.idx, len(t.cfg.Playlist)))
		t.idx = 0
		return
	}
	e := &t.curEntry
	c.Str(&e.URL)
	c.Str(&e.ControlAddr)
	c.Str(&e.Site.Name)
	c.Str(&e.Site.Host)
	c.Str(&e.Site.Country)
	snap.I64As(c, &e.Site.Region)
	c.F64(&e.Site.Unavailability)
	c.Int(&e.Site.Clips)
	c.Dur(&t.curStarted)
	vclock.SyncHandle(c, t.cfg.Clock, &t.pause, (*tracerArm)(t))
	engine := t.pl != nil
	c.Bool(&engine)
	if !engine {
		return
	}
	if c.Reading() {
		t.pl = player.New(player.Config{
			Clock:  t.cfg.Clock,
			Net:    t.cfg.Net,
			CPU:    player.PCClasses()[t.cfg.User.PCClass],
			Rand:   t.cfg.Rand,
			Arena:  &t.arena,
			OnDone: t.onDone,
		})
	}
	t.pl.Sync(c, stack, x)
}
