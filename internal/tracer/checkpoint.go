package tracer

import (
	"fmt"

	"realtracer/internal/player"
	"realtracer/internal/snap"
	"realtracer/internal/transport"
)

// Two of a session's events fire the tracer: the not-yet-started session
// (the world arms the Tracer itself at its start instant, and walks that
// timer) and the inter-clip think-time pause, which the tracer walks.

// Sync walks the tracer's session progress. The playlist, user and hooks
// are the owner's, which the world rebuilds deterministically from its
// Options; only the walk position, the in-flight clip's identity (which
// SelectServer may have re-homed) and the player engine are in the snapshot.
//
// Decoding overlays the walk onto an owner-built Tracer (fresh from New with
// the same Config the original had, user and playlist installed). The
// arena the player leases from restores empty: checkpointed packets and
// frames are carried by value elsewhere, so arena cells hold no restored
// state and refill as the session proceeds.
func (t *Tracer) Sync(c *snap.Codec, stack *transport.Stack, x *transport.SnapCtx) {
	c.Tag("tracer")
	c.Int(&t.idx)
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
	t.cfg.Clock.SyncTimer(c, &t.pause, (*tracerArm)(t))
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
			OnDone: t.onDone,
			Arena:  t.cfg.Arena,
		})
	}
	t.pl.Sync(c, stack, x)
}
