package study

import (
	"math/rand"
	"slices"

	"realtracer/internal/geo"
	"realtracer/internal/netsim"
	"realtracer/internal/rdt"
	"realtracer/internal/session"
	"realtracer/internal/simclock"
	"realtracer/internal/trace"
	"realtracer/internal/tracer"
	"realtracer/internal/transport"
)

// SessionFactory turns a user — a pre-scheduled panel participant or an
// open-loop arrival — into an attached host and a configured RealTracer on
// one shard's clock and network. The closed panel drives it once per user
// at build time, an arrival cell drives its shard's once per arrival on the
// simclock. Both paths share the same attach / tracer construction, so a
// clip played under either mode is measured identically.
//
// A world has one factory per shard (World.factories; the classic world is
// one shard), and everything that runs on a shard reaches the shard's clock,
// network and record path through its factory, so every session a shard
// owns touches only that shard's mutable state.
type SessionFactory struct {
	w     *World
	clock *simclock.Clock
	net   *netsim.Network
	// records, on a fabric, buffers the shard's records until Run merges the
	// shards' streams into the world sink in a partition-invariant order.
	// Nil on the classic engine, whose records go straight to w.sink — which
	// SetSink may replace after the factory is built.
	records *trace.Collector
	// dynLabel and policyLabel are the world-constant condition labels
	// stamped on every record (stamping from one string instead of
	// reformatting per record).
	dynLabel    string
	policyLabel string
	// dataAddr is the static world's server data address by control
	// address, which every player's SETUP takes instead of rendering it.
	dataAddr func(controlAddr string) string

	// idle are the shard's open-loop bundles between sessions: unbound from
	// any template and holding nothing the clock can reach (quiescent), so a
	// launch on any of the shard's cells may lease one. draining are bundles
	// whose template was freed before they were quiescent; each stays bound
	// to its template until a lease finds it quiescent. live counts the
	// shard's busy templates and peak its maximum, the most bundles a run
	// should need.
	idle, draining []*sessionBundle
	live, peak     int

	// arena is the shard's packet storage: every server and player on the
	// shard leases its packet cells here, so the free-lists hold the shard's
	// in-flight high water, not each session object's. Only the shard's
	// goroutine touches it (rdt.Arena); a resumed world's starts empty.
	arena rdt.Arena
}

// lease hands out an idle bundle, or nil when there is none. Draining bundles
// that have gone quiescent since they were freed become idle first.
func (f *SessionFactory) lease() *sessionBundle {
	// DeleteFunc asks each draining bundle once, in order; settle idles the
	// quiescent ones as it drops them.
	f.draining = slices.DeleteFunc(f.draining, (*sessionBundle).settle)
	k := len(f.idle) - 1
	if k < 0 {
		return nil
	}
	b := f.idle[k]
	f.idle = f.idle[:k]
	return b
}

// release takes back the bundle of a template just freed: idle at once if it
// is quiescent, else draining. It is never cancelled into quiescence: what
// it still has armed fires as it would have.
func (f *SessionFactory) release(b *sessionBundle) {
	if !b.settle() {
		f.draining = append(f.draining, b)
	}
}

// attach brings the user's host onto the network with its access profile.
// Modem users draw their uplink characteristics from rng — the same draws,
// in the same order, as the classic launchUsers body.
func (f *SessionFactory) attach(u *geo.User, rng *rand.Rand) {
	access := netsim.DefaultAccessProfile(u.Access)
	if u.Access == netsim.AccessModem {
		// 2001 modems were a spread of V.90 and V.34 hardware syncing
		// anywhere from ~26 to ~46 Kbps depending on the line; PPP
		// framing and compression overhead shave ~10 % off the sync
		// rate in practice.
		access.DownKbps = u.ModemKbps * 0.9
		access.UpKbps = 22 + rng.Float64()*9
	}
	f.net.AddHost(netsim.HostConfig{Name: u.Name, Access: access})
}

// observe stamps the world-constant condition labels on a record and hands
// it to the shard's buffer or the world sink — the default OnRecord path.
func (f *SessionFactory) observe(rec *trace.Record) {
	rec.Dynamics = f.dynLabel
	rec.Policy = f.policyLabel
	if f.records != nil {
		f.records.Observe(rec)
		return
	}
	f.w.sink.Observe(rec)
}

// newTracer builds a RealTracer session for u over the given playlist.
// rate, selectServer, onRecord and onFinished let the open-loop path install
// its per-clip mirror selection and session-lifecycle bookkeeping; the panel
// passes its user's rater, nil selection and the plain observe/remaining
// pair. An open-loop bundle passes a nil playlist: everything bound here —
// the transport stack, RNG and hooks — is created once and survives every
// session the bundle serves, whatever template it serves it for, and
// Tracer.Reset installs each arrival's user and playlist. The tracer comes
// back with the transport stack built for it, which its owner keeps for the
// snapshot walk.
//
// The transport stack is bound to a host name, not to a host incarnation:
// interned host IDs are permanent and ephemeral ports advance per name, so a
// stack rebound to a name (Stack.Rebind) serves every re-arrival under it.
func (f *SessionFactory) newTracer(u *geo.User, rng *rand.Rand, playlist []tracer.Entry,
	rate func(*trace.Record) float64, selectServer func(tracer.Entry) tracer.Entry,
	onRecord func(*trace.Record), onFinished func()) (*tracer.Tracer, *transport.Stack) {
	stack := transport.NewStack(f.net, u.Name)
	return tracer.New(tracer.Config{
		Clock:        f.clock,
		Net:          session.SimNet{Stack: stack},
		User:         u,
		Playlist:     playlist,
		Preroll:      f.w.Options.Preroll,
		Rand:         rng,
		Rate:         rate,
		SelectServer: selectServer,
		OnRecord:     onRecord,
		OnFinished:   onFinished,
		DataAddr:     f.dataAddr,
		Arena:        &f.arena,
	}), stack
}
