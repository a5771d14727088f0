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
// straight-through run of the same seed. A named fork runs the snapshot's
// own options too and overrides nothing: it only re-derives every RNG
// stream from the fork name, so N forks of one warm snapshot diverge
// deterministically.
package study

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"strconv"

	"realtracer/internal/session"
	"realtracer/internal/snap"
	"realtracer/internal/trace"
	"realtracer/internal/transport"
)

// snapMagic stamps the snapshot format. Bump the trailing digit on any
// layout change: a resume under a mismatched build fails on the magic
// before misreading a single field.
const snapMagic = "RTSNAP9"

// Fork names a divergent scenario to resume from a checkpoint. The nil
// Fork (or the zero value) is an exact resume: every RNG stream replays
// its draw count and the run completes byte-identical to never having
// stopped. A named fork runs the same options and re-derives every stream
// from Name; the name is the whole fork.
type Fork struct {
	Name string
}

// forkSeed derives the seed a named fork's RNG stream restarts from: the
// checkpointed stream position hashed with the fork name and the stream's
// role label ("seed|count|name|label" in decimal), so every fork gets a
// private, reproducible stream.
func forkSeed(seed int64, count uint64, name, label string) int64 {
	b := strconv.AppendInt(make([]byte, 0, 64), seed, 10)
	b = append(b, '|')
	b = strconv.AppendUint(b, count, 10)
	b = append(b, '|')
	b = append(b, name...)
	b = append(b, '|')
	b = append(b, label...)
	if s := int64(hashBytes(b)); s != 0 {
		return s
	}
	return 1
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

// restart returns the fork hook of one of the network's two streams. A named
// fork restarts each at a seed derived from base, the seed the world built the
// stream with, not from the position the snapshot holds.
func (f *Fork) restart(base int64, label string) func(seed int64, count uint64) int64 {
	if f == nil || f.Name == "" {
		return nil
	}
	seed := forkSeed(base, 0, f.Name, label)
	return func(int64, uint64) int64 { return seed }
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
// is exactly the warm-fork producer loop.
//
// The walk is the only check: whatever it cannot persist fails it by name,
// and out receives nothing unless the whole walk succeeded. Only the classic
// engine is checkpointable (netsim refuses a sharded network), only under a
// sink that walks itself into the snapshot (trace.SyncSink refuses the rest:
// a CSV writer, say, has already let the prefix's records go), and only
// when every pending event has exactly one owner that walks it
// (simclock.Clock.CheckOwned).
func (w *World) Checkpoint(out io.Writer) error {
	var buf bytes.Buffer
	c := snap.NewEncoder(&buf)
	syncHeader(c, &w.Options)
	w.sync(c, nil)
	w.Clock.CheckOwned(c)
	if err := c.Err(); err != nil {
		return err
	}
	_, err := out.Write(buf.Bytes())
	return err
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
// of every RNG.
func (w *World) sync(c *snap.Codec, fork *Fork) {
	// Restoring the clock wipes every build-time event (panel start timers,
	// the first arrival); each owner below re-arms its own events at their
	// original slots.
	w.Clock.Sync(c)
	w.Net.Sync(c, fork.restart(w.Options.networkSeed(), "net"), fork.restart(w.Options.dynamicsSeed(), "dynamics"))

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
	// Per template: busy, whether it holds a bundle, then the bundle or else
	// the template's port counter. Idle bundles are not state: they hold
	// nothing the clock can reach, and decoding builds bundles only for the
	// templates that hold one.
	busy := 0
	for mi := range cell.bundles {
		c.Bool(&cell.busy[mi])
		held := cell.bundles[mi] != nil
		c.Bool(&held)
		if cell.busy[mi] {
			busy++
		}
		if !held {
			c.Int(&cell.ports[mi])
			if c.Reading() && c.Err() == nil && (cell.busy[mi] || cell.ports[mi] < 0) {
				c.Fail(fmt.Errorf("study: checkpoint template %s is busy=%v with no bundle and %d ports handed out",
					w.Users[cell.members[mi]].Name, cell.busy[mi], cell.ports[mi]))
			}
			continue
		}
		if c.Reading() {
			if c.Err() != nil {
				return
			}
			if cell.newBundle(mi); !cell.busy[mi] {
				cell.f.draining = append(cell.f.draining, cell.bundles[mi])
			}
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
			// Reset installs the user and playlist (and clears walk state)
			// before the tracer overlay repositions the walk.
			b.tr.Reset(w.Users[b.idx], b.playlist)
		}
		w.Clock.SyncTimer(c, &b.departTimer, (*departArm)(b))
		b.tr.Sync(c, b.stack, x)
	}
	if c.Reading() && c.Err() == nil {
		if busy != cell.active {
			c.Fail(fmt.Errorf("study: checkpoint has %d busy templates but %d sessions active", busy, cell.active))
		}
		cell.f.live, cell.f.peak = busy, busy
	}
}

// Resume rebuilds a world from a snapshot written by Checkpoint and
// positions it to continue exactly where the checkpoint left off; drive
// it with Run (or RunUntil) as usual, under the snapshot's own options.
// fork selects between an exact resume (nil, byte-identical to never
// stopping) and a named divergent scenario; see Fork. It builds the static
// world the snapshot's options describe; Static.Resume shares one.
func Resume(r io.Reader, fork *Fork) (*World, error) { return resume(r, fork, nil) }

// Resume is the package-level Resume on the static world s, which must be
// the one the snapshot's options describe: the world is instantiated from
// s, and the decoder hands out s's names instead of copies of them.
func (s *Static) Resume(r io.Reader, fork *Fork) (*World, error) { return resume(r, fork, s) }

// resume is Resume on st, or on the static world it builds when st is nil.
func resume(r io.Reader, fork *Fork, st *Static) (*World, error) {
	// The whole snapshot is buffered so every length and count in it can be
	// checked against the bytes that actually remain.
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("study: reading checkpoint: %w", err)
	}
	c := snap.NewDecoder(data)
	var opt Options
	syncHeader(c, &opt)
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("study: not a usable checkpoint: %w", err)
	}
	// A snapshot spends bytes on every user or template it carries; options
	// claiming a larger world — or a sharded one, which is never
	// checkpointed — are rejected before NewWorld builds anything.
	if opt.MaxUsers > len(data) || opt.Shards != 0 {
		return nil, fmt.Errorf("study: checkpoint options (%d users, %d shards) describe a world this snapshot cannot hold", opt.MaxUsers, opt.Shards)
	}

	// Deterministic rebuild: NewStatic validates the options and builds the
	// static world (hosts, libraries, playlist, route table) the snapshot's
	// was, and instantiating it replays exactly the build-time draws the
	// original made, so the overlay only has to carry the dynamic state.
	if st == nil {
		if st, err = NewStatic(opt); err != nil {
			return nil, err
		}
	} else if opt != st.opt {
		return nil, fmt.Errorf("study: checkpoint of a world with options %+v, not of the static world's %+v", opt, st.opt)
	}
	w, err := st.NewWorld()
	if err != nil {
		return nil, err
	}
	c.Share(st.names())
	w.sync(c, fork)
	if err := c.Err(); err != nil {
		return nil, err
	}
	return w, nil
}

// readAll reads r to its end, into a buffer of exactly the right size when r
// reports how many bytes it holds (a bytes.Reader does) instead of growing one.
func readAll(r io.Reader) ([]byte, error) {
	sized, ok := r.(interface{ Len() int })
	if !ok {
		return io.ReadAll(r)
	}
	data := make([]byte, sized.Len())
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, err
	}
	return data, nil
}
