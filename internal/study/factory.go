package study

import (
	"math/rand"

	"realtracer/internal/geo"
	"realtracer/internal/netsim"
	"realtracer/internal/session"
	"realtracer/internal/simclock"
	"realtracer/internal/trace"
	"realtracer/internal/tracer"
	"realtracer/internal/transport"
	"realtracer/internal/vclock"
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
// selectServer, onRecord and onFinished let the open-loop path install its
// per-clip mirror selection and session-lifecycle bookkeeping; the panel
// passes nil selection and the plain observe/remaining pair. An open-loop
// template bundle passes a nil playlist: everything bound here — the
// template's transport stack, RNG, rater and lifecycle hooks — is created
// once and survives every session the bundle serves, and Tracer.Reset
// installs each arrival's playlist. The tracer comes back with the transport
// stack built for it, which its owner keeps for the snapshot walk.
//
// The transport stack is bound to the user's host name, not to a host
// incarnation: interned host IDs are permanent and ephemeral ports advance
// monotonically, so the same stack serves every re-arrival of a pooled
// template.
func (f *SessionFactory) newTracer(u *geo.User, rng *rand.Rand, playlist []tracer.Entry,
	selectServer func(tracer.Entry) tracer.Entry,
	onRecord func(*trace.Record), onFinished func()) (*tracer.Tracer, *transport.Stack) {
	rater := newRater(u, rng)
	stack := transport.NewStack(f.net, u.Name)
	return tracer.New(tracer.Config{
		Clock:        vclock.Sim{C: f.clock},
		Net:          session.SimNet{Stack: stack},
		User:         u,
		Playlist:     playlist,
		PlayFor:      f.w.Options.PlayFor,
		Preroll:      f.w.Options.Preroll,
		Rand:         rng,
		Rate:         rater.rate,
		SelectServer: selectServer,
		OnRecord:     onRecord,
		OnFinished:   onFinished,
	}), stack
}
