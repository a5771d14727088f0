// World checkpoint/fork: pay the warm-up once, fork N scenarios from one
// snapshot.
//
// Checkpoint serializes a running classic (unsharded) world — clock
// scalars, every pending event, the network core, server sessions, dials in
// flight, tracer/player bundles, workload cursors, the record sink's state and
// the position of every RNG stream — into a version-stamped snapshot. It is
// a read-only walk: the snapshot is cut at exactly the instant the world
// stands at, and the world is unchanged by it. Resume
// rebuilds the world deterministically from the snapshot's Options (the
// build path replays exactly the draws the original build made), resets
// the clock, overlays the persisted state and re-arms every event at its
// original (time, seq) slot, so an exact resume is byte-identical to a
// straight-through run of the same seed. A named fork instead re-derives
// every RNG stream from the fork name and may change the scenario knobs
// that do not reshape the built world (dynamics, selection policy,
// intensities, controller), so N forks of one warm snapshot diverge
// deterministically.
package study

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/fnv"
	"io"

	"realtracer/internal/session"
	"realtracer/internal/simclock"
	"realtracer/internal/snap"
	"realtracer/internal/trace"
	"realtracer/internal/transport"
)

func init() {
	simclock.RegisterEventKind("study.arrive", (*arriveArm)(nil))
	simclock.RegisterEventKind("study.depart", (*departArm)(nil))
}

// snapMagic stamps the snapshot format. Bump the trailing digit on any
// layout change: a resume under a mismatched build fails on the magic
// before misreading a single field.
const snapMagic = "RTSNAP3"

// Fork names a divergent scenario to resume from a checkpoint. The nil
// Fork (or the zero value) is an exact resume: every RNG stream replays
// its draw count and the run completes byte-identical to never having
// stopped. A named fork re-derives every stream from Name, and the set
// fields override the snapshot's Options. Only knobs that do not reshape
// the built world may change; anything else (seed, population, workload
// profile, horizon) fails NewWorld's validation or the interning check.
type Fork struct {
	Name string

	Dynamics          *string
	DynamicsIntensity *float64
	DynamicsSeed      *int64
	Controller        *string
	Selection         *string
	WorkloadIntensity *float64
	CongestionScale   *float64
}

// apply overlays the fork's deltas onto opt and reports whether the
// dynamics schedule changed (which invalidates checkpointed per-path
// chain state).
func (f *Fork) apply(opt *Options) (dynChanged bool) {
	if f == nil {
		return false
	}
	if f.Dynamics != nil && *f.Dynamics != opt.Dynamics {
		opt.Dynamics = *f.Dynamics
		dynChanged = true
	}
	if f.DynamicsIntensity != nil && *f.DynamicsIntensity != opt.DynamicsIntensity {
		opt.DynamicsIntensity = *f.DynamicsIntensity
		dynChanged = true
	}
	if f.DynamicsSeed != nil && *f.DynamicsSeed != opt.DynamicsSeed {
		opt.DynamicsSeed = *f.DynamicsSeed
		dynChanged = true
	}
	if f.Controller != nil {
		opt.Controller = *f.Controller
	}
	if f.Selection != nil {
		opt.Selection = *f.Selection
	}
	if f.WorkloadIntensity != nil {
		opt.WorkloadIntensity = *f.WorkloadIntensity
	}
	if f.CongestionScale != nil {
		opt.CongestionScale = *f.CongestionScale
	}
	return dynChanged
}

// Applied returns base with the fork's scenario deltas applied — the
// options the forked world actually runs. Resume performs the same
// application internally; Applied lets callers (the campaign layer) label
// fork results with their effective configuration.
func (f *Fork) Applied(base Options) Options {
	f.apply(&base)
	return base
}

// forkSeed derives the seed a named fork's RNG stream restarts from: the
// checkpointed stream position hashed with the fork name and the stream's
// role label, so every fork gets a private, reproducible stream.
func forkSeed(seed int64, count uint64, name, label string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%s|%s", seed, count, name, label)
	s := int64(h.Sum64())
	if s == 0 {
		s = 1
	}
	return s
}

// reseed returns the RNG-stream walk's fork hook for the stream labelled
// label: nil for an exact resume (the stream replays its checkpointed draw
// count), and for a named fork the derivation of the stream's private
// restart seed.
func (f *Fork) reseed(label string) func(seed int64, count uint64) int64 {
	if f == nil || f.Name == "" {
		return nil
	}
	return func(seed int64, count uint64) int64 { return forkSeed(seed, count, f.Name, label) }
}

// sync walks every Options field. The encoding doubles as the version
// stamp: the bytes are hashed into the snapshot, so a build whose Options
// shape changed fails the hash (or leaves trailing bytes) instead of
// silently rebuilding a different world.
func (o *Options) sync(c *snap.Codec) {
	c.Tag("options")
	c.I64(&o.Seed)
	c.Int(&o.MaxUsers)
	c.Int(&o.ClipCap)
	c.Dur(&o.PlayFor)
	c.Bool(&o.DisableSureStream)
	c.Bool(&o.DisableFEC)
	c.Dur(&o.Preroll)
	c.Str(&o.Controller)
	c.F64(&o.CongestionScale)
	c.Str(&o.Dynamics)
	c.F64(&o.DynamicsIntensity)
	c.I64(&o.DynamicsSeed)
	c.Str(&o.Workload)
	c.F64(&o.WorkloadIntensity)
	c.I64(&o.WorkloadSeed)
	c.Int(&o.Arrivals)
	c.Str(&o.Selection)
	c.Int(&o.Shards)
	c.Dur(&o.StaggerWindow)
	c.F64(&o.ServerUplinkKbps)
}

// syncHeader walks the snapshot's preamble: the format magic, then the
// world's Options as a hashed block, so Resume can rebuild the world before
// it reads any state.
func syncHeader(c *snap.Codec, opt *Options) {
	magic := snapMagic
	c.Str(&magic)
	if c.Err() == nil && magic != snapMagic {
		c.Fail(fmt.Errorf("magic %q, want %q (snapshot from an incompatible build)", magic, snapMagic))
	}
	var block bytes.Buffer
	if !c.Reading() {
		opt.sync(snap.NewEncoder(&block))
	}
	optBytes := block.Bytes()
	c.Bytes(&optBytes)
	hash := hashBytes(optBytes)
	c.U64(&hash)
	if !c.Reading() || c.Err() != nil {
		return
	}
	if h := hashBytes(optBytes); h != hash {
		c.Fail(fmt.Errorf("options hash mismatch (got %x, want %x): snapshot corrupted or from an incompatible build", h, hash))
		return
	}
	oc := snap.NewDecoder(optBytes)
	opt.sync(oc)
	if err := oc.Err(); err != nil {
		c.Fail(fmt.Errorf("options: %w", err))
	} else if oc.Remaining() > 0 {
		c.Fail(fmt.Errorf("options carry %d trailing byte(s): snapshot from an incompatible build", oc.Remaining()))
	}
}

func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// Checkpoint serializes the world's full simulation state into out, cut at
// the instant the clock stands at. It fires no event and changes nothing, so
// the world stays runnable afterwards — checkpointing mid-run and continuing
// is exactly the warm-fork producer loop. Writes to out are buffered here.
//
// Only the classic engine is checkpointable (sharded worlds spread their
// state across goroutines), and only under a sink that walks itself into the
// snapshot (trace.SnapSink: a Collector its records, figures.Aggregates its
// accumulators). A sink that cannot — a CSV writer or a SinkFunc has already
// let the prefix's records go — is an error naming its type.
func (w *World) Checkpoint(out io.Writer) error {
	if w.fab != nil {
		return fmt.Errorf("study: sharded worlds cannot be checkpointed")
	}
	if _, ok := w.sink.(trace.SnapSink); !ok {
		return fmt.Errorf("study: sink of type %T cannot be snapshotted", w.sink)
	}
	if err := w.Clock.CheckPersistable(); err != nil {
		return err
	}

	buf := bufio.NewWriter(out)
	c := snap.NewEncoder(buf)
	syncHeader(c, &w.Options)
	w.sync(c, nil, true)
	if err := c.Err(); err != nil {
		return err
	}
	return buf.Flush()
}

// sync is the one walk of a world's simulation state, in snapshot order:
// clock, network core, servers, the panel or open-loop population, the
// record sink (rebuilt on decode from its section tag), and last the
// in-flight packets — their payloads may
// reference TCP conns walked before them, and decoding resolves those
// references against the conns it has already rebuilt.
//
// Decoding overlays onto a world NewWorld just rebuilt from the snapshot's
// Options. fork (decoding only) selects exact replay or per-stream reseeding
// of every RNG; keepDynamics is false when the fork changed the dynamics
// schedule, which invalidates checkpointed per-path chain state.
func (w *World) sync(c *snap.Codec, fork *Fork, keepDynamics bool) {
	// Restoring the clock wipes every build-time event (panel start timers,
	// the first arrival); each owner below re-arms its own events at their
	// original slots.
	w.Clock.Sync(c)
	w.Net.Sync(c, keepDynamics)
	if c.Reading() && fork != nil && fork.Name != "" {
		opt := w.Options
		w.Net.ReseedRNGs(forkSeed(opt.Seed+3, 0, fork.Name, "net"), forkSeed(opt.dynamicsSeed(), 0, fork.Name, "dynamics"))
	}

	x := transport.NewSnapCtx(session.SnapSync)
	c.Tag("servers")
	if !syncCount(c, len(w.Servers), "servers") {
		return
	}
	for i, srv := range w.Servers {
		w.serverRNGs[i].Sync(c, fork.reseed("server:"+w.ActiveSites[i].Host))
		w.serverStacks[i].Sync(c, x)
		srv.Sync(c, w.serverStacks[i], x)
	}

	open := w.open != nil
	c.Bool(&open)
	switch {
	case c.Err() != nil:
		return
	case open != (w.open != nil):
		c.Fail(fmt.Errorf("study: checkpoint open-loop=%v but the rebuilt world's is %v", open, w.open != nil))
		return
	case open:
		w.syncOpenLoop(c, x, fork)
	default:
		w.syncPanel(c, x, fork)
	}

	trace.SyncSink(c, &w.sink)

	w.Net.SyncPackets(c, x.PayloadSync)
	c.Tag("endsnap")
}

// syncCount walks the size of a population the rebuilt world must match
// exactly (servers, panel users, templates), failing the codec when the
// snapshot disagrees with what NewWorld built.
func syncCount(c *snap.Codec, built int, what string) bool {
	n := built
	c.Len(&n)
	if c.Err() == nil && n != built {
		c.Fail(fmt.Errorf("study: checkpoint holds %d %s, world built %d", n, what, built))
	}
	return c.Err() == nil
}

func (w *World) syncPanel(c *snap.Codec, x *transport.SnapCtx, fork *Fork) {
	c.Tag("panel")
	c.Int(&w.remaining)
	if !syncCount(c, len(w.Users), "panel users") {
		return
	}
	for i, u := range w.Users {
		p := &w.panel[i]
		p.rng.Sync(c, fork.reseed("user:"+u.Name))
		p.stack.Sync(c, x)
		w.Clock.SyncTimer(c, &p.start, p.tr)
		p.tr.Sync(c, p.stack, x)
	}
}

func (w *World) syncOpenLoop(c *snap.Codec, x *transport.SnapCtx, fork *Fork) {
	c.Tag("openloop")
	cell := w.open.cells[0] // the classic open loop is a single cell
	c.Int(&cell.arrivalsLeft)
	c.Int(&cell.active)
	c.Int(&cell.sessions)
	c.Int(&cell.balked)
	c.Int(&cell.departed)
	c.Int(&cell.cursor)
	if c.Reading() && c.Err() == nil && (cell.arrivalsLeft < 0 || cell.arrivalsLeft > w.Options.Arrivals ||
		cell.active < 0 || cell.active > len(cell.busy) || cell.cursor < 0 || cell.cursor > len(cell.busy)) {
		c.Fail(fmt.Errorf("study: checkpoint arrival state (%d arrivals left, %d active, scan cursor %d) outside the world's %d arrivals over %d templates",
			cell.arrivalsLeft, cell.active, cell.cursor, w.Options.Arrivals, len(cell.busy)))
		return
	}
	cell.rng.Sync(c, fork.reseed("arrivals"))
	// Only stateful selection policies walk a cursor; the rest leave a zero.
	// A fork onto another policy reads past the old one's.
	if p, ok := cell.policy.(interface{ Sync(*snap.Codec) }); ok {
		p.Sync(c)
	} else {
		var none int
		c.Int(&none)
	}
	w.Clock.SyncTimer(c, &cell.arrivalTimer, (*arriveArm)(cell))
	if !syncCount(c, len(cell.bundles), "templates") {
		return
	}
	for mi := range cell.bundles {
		c.Bool(&cell.busy[mi])
		built := cell.bundles[mi] != nil
		c.Bool(&built)
		if !built {
			continue
		}
		if c.Reading() {
			if c.Err() != nil {
				return
			}
			cell.bundles[mi] = cell.newBundle(mi, 0)
		}
		b := cell.bundles[mi]
		name := w.Users[b.idx].Name
		b.rng.Sync(c, fork.reseed("session:"+name))
		b.stack.Sync(c, x)
		c.Bool(&b.done)
		c.Bool(&b.departed)
		c.I64(&b.ordinal)
		snap.Slice(c, &b.clips, (*snap.Codec).Int)
		if c.Reading() {
			b.playlist = b.playlist[:0]
			for _, ci := range b.clips {
				if ci < 0 || ci >= len(w.Playlist) {
					c.Fail(fmt.Errorf("study: checkpoint clip index %d out of playlist range", ci))
					return
				}
				b.playlist = append(b.playlist, w.Playlist[ci])
			}
			// Reset installs the playlist (and clears walk state) before the
			// tracer overlay repositions the walk.
			b.tr.Reset(b.playlist)
		}
		w.Clock.SyncTimer(c, &b.departTimer, (*departArm)(b))
		b.tr.Sync(c, b.stack, x)
	}
}

// Resume rebuilds a world from a snapshot written by Checkpoint and
// positions it to continue exactly where the checkpoint left off; drive
// it with Run (or RunUntil) as usual. fork selects between an exact
// resume (nil, byte-identical to never stopping) and a named divergent
// scenario; see Fork.
func Resume(r io.Reader, fork *Fork) (*World, error) {
	// The whole snapshot is buffered so every length and count in it can be
	// checked against the bytes that actually remain.
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("study: reading checkpoint: %w", err)
	}
	c := snap.NewDecoder(data)
	var opt Options
	syncHeader(c, &opt)
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("study: not a usable checkpoint: %w", err)
	}
	dynChanged := fork.apply(&opt)
	// A snapshot spends bytes on every user or template it carries; options
	// claiming a larger world — or a sharded one, which is never
	// checkpointed — are rejected before NewWorld builds anything.
	if opt.MaxUsers > len(data) || opt.Shards != 0 {
		return nil, fmt.Errorf("study: checkpoint options (%d users, %d shards) describe a world this snapshot cannot hold", opt.MaxUsers, opt.Shards)
	}

	// Deterministic rebuild: NewWorld validates the options, then replays
	// exactly the build-time draws the original made, so the static world
	// (hosts, libraries, playlist, route table) matches the snapshot and the
	// overlay only has to carry the dynamic state.
	w, err := NewWorld(opt)
	if err != nil {
		return nil, err
	}
	w.sync(c, fork, !dynChanged)
	if err := c.Err(); err != nil {
		return nil, err
	}
	return w, nil
}
