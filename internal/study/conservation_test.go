package study

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"realtracer/internal/figures"
	"realtracer/internal/lease"
	"realtracer/internal/netsim"
	"realtracer/internal/rdt"
	"realtracer/internal/rtsp"
	"realtracer/internal/trace"
	"realtracer/internal/tracer"
	"realtracer/internal/transport"
)

// TestConservation is the first slice of the invariant oracle: every fence
// world, on every engine that runs it (the closed panel is classic-only),
// retaining its records and streaming them, must balance its books. The
// orphaned-dial world joins them for its departures mid-dial: a bundle that
// leaves one behind must not go idle before the dial resolves.
func TestConservation(t *testing.T) {
	world := func(name string, opt Options) {
		engines := []int{0}
		if opt.OpenLoop() {
			engines = []int{0, 1, 2}
		}
		for _, shards := range engines {
			opt.Shards = shards
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) { checkConservation(t, opt) })
		}
	}
	for _, fw := range fenceWorlds {
		world(fw.name, fw.opt)
	}
	world("orphandial", orphanDialWorld)
}

// checkConservation runs opt twice — under the default collector and
// streaming into aggregates — and asserts on each finished world:
//
//   - packets: sent = delivered + dropped + still scheduled on a clock,
//     summed over the shards of a sharded world;
//   - arrivals: the budget was spent on sessions and balks, nothing else;
//   - sessions: every admitted session ended, by finishing its playlist or
//     by departing mid-stream, so the sessions that reported a record number
//     at least finished = sessions − departed and at most sessions;
//   - idle bundles (checkIdleBundles), mid-run and at the end, and
//     quiescent after every event of a classic run: a bundle between
//     sessions holds nothing the clock can reach;
//   - leases (checkLeases): every pooled packet cell and segment is back in
//     its pool once whoever could still read it has let go;
//
// and across the two: the same events, and streamed aggregates equal to
// figures.Aggregate of the retained records.
func checkConservation(t *testing.T, opt Options) {
	run := func(sink trace.Sink) *Result {
		t.Helper()
		w, err := NewWorld(opt)
		if err != nil {
			t.Fatal(err)
		}
		w.SetSink(sink) // nil keeps the default collector
		packets := func(when string) {
			t.Helper()
			sent, delivered, dropped := w.Net.Stats()
			if w.fab != nil {
				sent, delivered, dropped = w.fab.Stats()
			}
			var scheduled uint64
			for _, f := range w.factories {
				for _, pe := range f.clock.Pendings() {
					if _, ok := pe.Handler.(*netsim.Packet); ok {
						scheduled++
					}
				}
			}
			if sent != delivered+dropped+scheduled || sent == 0 && w.ran {
				t.Errorf("packets %s: sent %d != delivered %d + dropped %d + still scheduled %d", when, sent, delivered, dropped, scheduled)
			}
		}
		if w.fab == nil { // a sharded world cannot be partially driven
			for midRun := true; !w.finished() && w.Clock.Step(); {
				if midRun && w.Clock.Now() >= 10*time.Minute {
					midRun = false
					packets("mid-run")
					checkIdleBundles(t, w)
				}
				for _, b := range w.factories[0].idle {
					if !b.quiescent() {
						t.Fatalf("bundles: after the event at %v an idle bundle is not quiescent", w.Clock.Now())
					}
				}
			}
		}
		res, err := w.Run()
		if err != nil {
			t.Fatal(err)
		}
		packets("at the end")
		if idle := checkIdleBundles(t, w); idle == 0 && opt.OpenLoop() {
			t.Error("bundles: no bundle was idle at the end of the run, so the idle check judged nothing")
		}
		checkLeases(t, w)

		if !opt.OpenLoop() {
			if res.Sessions+res.Balked+res.Departed != 0 {
				t.Errorf("closed panel reports sessions=%d balked=%d departed=%d", res.Sessions, res.Balked, res.Departed)
			}
			return res
		}
		if res.Sessions+res.Balked != w.Options.Arrivals {
			t.Errorf("arrivals: %d sessions + %d balked != %d arrivals", res.Sessions, res.Balked, w.Options.Arrivals)
		}
		if active := totals(w.cells).active; active != 0 || res.Departed > res.Sessions {
			t.Errorf("sessions: %d admitted, %d departed, %d still active at the end", res.Sessions, res.Departed, active)
		}
		return res
	}

	retained := run(nil)
	streamed := figures.NewAggregates()
	sres := run(streamed)

	if opt.OpenLoop() {
		reported := map[int64]bool{}
		for _, r := range retained.Records {
			reported[r.Ordinal] = true
		}
		if n, finished := len(reported), retained.Sessions-retained.Departed; n < finished || n > retained.Sessions {
			t.Errorf("sessions: %d reported a record, outside [finished %d, sessions %d]", n, finished, retained.Sessions)
		}
	}
	if sres.Records != nil || sres.Events != retained.Events || sres.Sessions != retained.Sessions ||
		sres.Balked != retained.Balked || sres.Departed != retained.Departed {
		t.Errorf("streamed run diverged from the retained one: %d records kept, %d events vs %d, sessions %d/%d/%d vs %d/%d/%d",
			len(sres.Records), sres.Events, retained.Events, sres.Sessions, sres.Balked, sres.Departed,
			retained.Sessions, retained.Balked, retained.Departed)
	}
	if !bytes.Equal(renderAggregates(streamed), renderAggregates(figures.Aggregate(retained.Records))) {
		t.Error("streamed aggregates differ from figures.Aggregate of the retained records")
	}
}

// worldTracers returns every tracer the world has built: every bundle's,
// held or idle.
func worldTracers(w *World) []*tracer.Tracer {
	var trs []*tracer.Tracer
	for _, f := range w.factories {
		for _, b := range shardBundles(w, f) {
			trs = append(trs, b.tr)
		}
	}
	return trs
}

// checkIdleBundles asserts that every idle bundle holds nothing the clock can
// reach: no dial in flight, no conn of its stack open, and no pending event
// whose handler is the bundle, its tracer or player, or a dial or conn of its
// stack. It returns how many idle bundles it judged.
func checkIdleBundles(t *testing.T, w *World) (idle int) {
	t.Helper()
	for s, f := range w.factories {
		for i, b := range f.idle {
			idle++
			where := fmt.Sprintf("shard %d's idle bundle %d", s, i)
			if n := b.stack.DialsInFlight(); n != 0 {
				t.Errorf("bundles: %s has %d dials in flight", where, n)
			}
			stack := reflect.ValueOf(b.stack).Pointer()
			owned := map[uintptr]bool{}
			reachStructs(reflect.ValueOf(b), where, func(v reflect.Value, path string) bool {
				switch typ := v.Type(); strings.TrimPrefix(typ.PkgPath(), "realtracer/internal/") + "." + typ.Name() {
				case "study.sessionBundle", "tracer.Tracer", "player.Player", "transport.Stack", "transport.tcpDial":
				case "transport.simTCP", "transport.simUDP":
					if peek(v, "stack").Pointer() != stack {
						return false
					}
					if !peek(v, "closed").Bool() {
						t.Errorf("bundles: %s holds the open conn %s (%v)", where, path, peek(peek(v, "local"), "addr"))
					}
				default:
					return false
				}
				owned[v.UnsafeAddr()] = true
				return true
			})
			for _, pe := range f.clock.Pendings() {
				h := reflect.ValueOf(pe.Handler)
				if h.Kind() != reflect.Pointer {
					continue
				}
				_, onStack := h.Elem().Type().FieldByName("stack")
				if owned[h.Pointer()] || onStack && peek(h, "stack").Pointer() == stack {
					t.Errorf("bundles: %s has a %T event pending at %v", where, pe.Handler, pe.At)
				}
			}
		}
	}
	return idle
}

// userStacks returns the transport stack of every tracer bound to a user —
// the bundles templates hold — by the user's host name.
func userStacks(w *World) map[string]*transport.Stack {
	stacks := map[string]*transport.Stack{}
	for _, c := range w.cells {
		for _, b := range c.bundles {
			if b != nil {
				stacks[w.Users[b.idx].Name] = b.stack
			}
		}
	}
	return stacks
}

// worldStructs calls enter with every addressable struct reachable from w
// through pointers, interfaces, slices, arrays, maps and struct fields,
// exported or not, and the path it was first reached by; enter returns false
// to keep the walk out of the struct's fields.
func worldStructs(w *World, enter func(v reflect.Value, path string) bool) {
	reachStructs(reflect.ValueOf(w), "World", enter)
}

// reachStructs is worldStructs from root, reached by path.
func reachStructs(root reflect.Value, path string, enter func(v reflect.Value, path string) bool) {
	seen := map[visit]bool{}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Pointer:
			if k := (visit{v.Pointer(), v.Type()}); !v.IsNil() && !seen[k] {
				seen[k] = true
				walk(v.Elem(), path)
			}
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem(), path)
			}
		case reflect.Struct:
			// A value boxed in an interface or a map is not addressable: no
			// pool and no conn lives in one.
			if v.CanAddr() && enter(v, path) {
				for i := 0; i < v.NumField(); i++ {
					walk(peek(v, v.Type().Field(i).Name), path+"."+v.Type().Field(i).Name)
				}
			}
		case reflect.Slice, reflect.Array:
			if k := v.Type().Elem().Kind(); k == reflect.Pointer || k == reflect.Interface || k == reflect.Struct || k == reflect.Slice || k == reflect.Array || k == reflect.Map {
				for i := 0; i < v.Len(); i++ {
					walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
				}
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Value(), fmt.Sprintf("%s[%v]", path, it.Key()))
			}
		}
	}
	walk(root, path)
}

// leasePools finds every lease.Pool reachable from w — the cell pools of every
// rdt.Arena (one per shard) and the segment pool of every transport.Stack —
// keyed by its address, with the path it was first reached by.
func leasePools(w *World) map[uintptr]leasePool {
	pools := map[uintptr]leasePool{}
	worldStructs(w, func(v reflect.Value, path string) bool {
		if t := v.Type(); t.PkgPath() != "realtracer/internal/lease" || !strings.HasPrefix(t.Name(), "Pool[") {
			return true
		}
		if _, dup := pools[v.UnsafeAddr()]; !dup {
			pools[v.UnsafeAddr()] = leasePool{v, path}
		}
		return false
	})
	return pools
}

type leasePool struct {
	pool reflect.Value
	path string
}

// checkClosedConns asserts that a closed conn holds nothing, at any instant:
// every closed simulated TCP conn reachable from w has an empty send buffer
// and reorder buffer. A listener's accept table drops a conn as it closes, so
// the closed ones are found where something still names them: a player's
// control and data conn, and the control and data conn of a server session,
// live or waiting on the server's free-list. It returns how many it found and
// how many of them froze a backlog, so a caller can tell the walk was not
// vacuous.
func checkClosedConns(t *testing.T, w *World) (closed, backlogged int) {
	t.Helper()
	worldStructs(w, func(v reflect.Value, path string) bool {
		if typ := v.Type(); typ.PkgPath() != "realtracer/internal/transport" || typ.Name() != "simTCP" || !peek(v, "closed").Bool() {
			return true
		}
		closed++
		if peek(v, "depth").Int() > 0 {
			backlogged++
		}
		held, buffered := peek(peek(v, "send"), "n").Int(), peek(peek(v, "reorder"), "n").Int()
		if held != 0 || buffered != 0 {
			t.Errorf("leases: the closed conn %s (%v) holds %d segments to send and %d buffered: teardown released nothing",
				path, peek(peek(v, "local"), "addr"), held, buffered)
		}
		return true
	})
	return closed, backlogged
}

// checkLeases is the lease half of the conservation oracle, for a world at
// quiescence: nothing is on the wire, so a pooled cell — a packet struct or
// an RTSP message of some shard's rdt arena, a segment of some host's
// transport stack — is out of its pool only if somebody still holds it. A conn that closed holds
// nothing (checkClosedConns), and a server session keeps headers, not cells,
// so what is left is the open conns: every server drops every client, the
// goodbyes land, and then every pool reachable from the world must have
// nothing on lease. A release that found a cell already released would have
// panicked on the way here.
func checkLeases(t *testing.T, w *World) {
	t.Helper()
	checkClosedConns(t, w)
	for _, srv := range w.Servers {
		for _, u := range w.Users {
			srv.DropClient(u.Name)
		}
	}
	// A reaped session says goodbye on its data conn; let the FINs land, and
	// every conn still talking to a host that left give up.
	if w.fab != nil {
		w.fab.Run(nil)
	} else {
		w.Clock.Run()
	}
	for _, srv := range w.Servers {
		if n := srv.ActiveSessions(); n != 0 {
			t.Errorf("leases: a server has %d sessions left after every client was dropped", n)
		}
	}

	// Per cell type: pools found, cells ever carved.
	found, carved := map[string]int{}, map[string]int{}
	pools := leasePools(w)
	for _, p := range pools {
		cells, free := int(peek(p.pool, "carved").Int()), peek(p.pool, "free").Len()
		if cells != free {
			t.Errorf("leases: %s has %d of %d cells on lease, want none", p.path, cells-free, cells)
		}
		kind := p.pool.Type().Name()
		found[kind]++
		carved[kind] += cells
	}
	// Every server and every tracer has a stack, and a world has exactly one
	// arena per shard, its factory's, which every server and player on the
	// shard leases from (an arena has one Packet pool and one RTSP message
	// pool). Fewer stacks, any other arena or message pool, or one that never
	// carved a cell in a world that ran, and the audit is not looking at what
	// the run ran on.
	trs := len(worldTracers(w))
	const segs, packets, msgs = "Pool[realtracer/internal/transport.tcpSeg]", "Pool[realtracer/internal/rdt.Packet]", "Pool[realtracer/internal/rtsp.Message]"
	if found[segs] < len(w.Servers)+trs || w.ran && carved[segs] == 0 {
		t.Errorf("leases: the audit reached %d segment pools (%d cells carved) in a world of %d servers and %d tracers",
			found[segs], carved[segs], len(w.Servers), trs)
	}
	if found[packets] != len(w.factories) || found[msgs] != len(w.factories) || w.ran && carved[msgs] == 0 {
		t.Errorf("leases: the audit reached %d arenas and %d message pools (%d messages carved) in a world of %d shards",
			found[packets], found[msgs], carved[msgs], len(w.factories))
	}
	for i, f := range w.factories {
		if _, ok := pools[peek(reflect.ValueOf(&f.arena), "packets").UnsafeAddr()]; !ok {
			t.Errorf("leases: shard %d's arena is not reachable from its servers and players", i)
		}
		if shardCarved, _ := f.arena.Cells(); w.ran && shardCarved == 0 {
			t.Errorf("leases: shard %d's arena carved no cell", i)
		}
	}
	checkCarved(t, w)
}

// checkCarved audits the two free-lists that carve outside a lease.Pool: a
// clock's events and a network's packets. Every event a clock ever carved is
// on its free-list, pending — cancelled tombstones included — or the slot of
// the event firing now; every packet the world's networks ever carved is on
// a free-list or in flight (pending on a clock, or in a fabric's outbox),
// summed over a sharded world's networks, whose free-lists trade packets
// between windows. Every clock and network of a world is one of its
// factories'. A release that is skipped or doubled breaks its sum.
func checkCarved(t *testing.T, w *World) {
	t.Helper()
	inFlight, packets, free := 0, 0, 0
	for _, f := range w.factories {
		c := reflect.ValueOf(f.clock)
		events, recycled := int(peek(peek(c, "cells"), "carved").Int()), peek(c, "free").Len()
		pending := peek(c, "near").Len() + int(peek(c, "ringN").Int()) + peek(c, "far").Len()
		if !peek(c, "firing").IsNil() {
			pending++
		}
		if events != recycled+pending || w.ran && events == 0 {
			t.Errorf("leases: a clock carved %d events, %d recycled + %d pending or firing", events, recycled, pending)
		}
		for _, pe := range f.clock.Pendings() {
			if _, ok := pe.Handler.(*netsim.Packet); ok {
				inFlight++
			}
		}
		n := reflect.ValueOf(f.net)
		packets += int(peek(peek(n, "cells"), "carved").Int())
		free += peek(n, "free").Len()
	}
	if w.fab != nil {
		out := peek(reflect.ValueOf(w.fab), "out")
		for src := 0; src < out.Len(); src++ {
			for dst := 0; dst < out.Index(src).Len(); dst++ {
				box := out.Index(src).Index(dst)
				for i := 0; i < box.Len(); i++ {
					if !peek(box.Index(i), "pkt").IsNil() {
						inFlight++
					}
				}
			}
		}
	}
	if packets != free+inFlight || w.ran && packets == 0 {
		t.Errorf("leases: the networks carved %d packets, %d free + %d in flight", packets, free, inFlight)
	}
}

// TestResumedWorldConservesLeases is the resume half of the lease oracle.
// Holder counts and home pointers are not in a snapshot: a resume rebuilds
// them from who holds each restored cell (a conn's send and reorder buffers,
// each segment reference on the wire), and what it cannot give a home —
// packets restored by value off the wire — it leaves to the garbage
// collector. Every fence world is cut at six
// instants, resumed, run to the end with the restored cells recycling
// beside fresh ones, and must then pass the same audit as a world that never
// stopped; at least one cut of each world must have landed mid-flight, with
// sessions streaming and packets on the wire.
func TestResumedWorldConservesLeases(t *testing.T) {
	for _, fw := range fenceWorlds {
		t.Run(fw.name, func(t *testing.T) {
			straight, err := Run(fw.opt)
			if err != nil {
				t.Fatal(err)
			}
			midFlight := 0
			for _, frac := range []float64{0.1, 0.25, 0.4, 0.55, 0.7, 0.85} {
				at := worldAt(t, fw.opt, time.Duration(float64(straight.SimDuration)*frac))
				sessions, wire := 0, 0
				for _, srv := range at.Servers {
					sessions += srv.ActiveSessions()
				}
				for _, pe := range at.Clock.Pendings() {
					if _, ok := pe.Handler.(*netsim.Packet); ok {
						wire++
					}
				}
				if sessions > 0 && wire > 0 {
					midFlight++
				}
				w, err := Resume(bytes.NewReader(checkpoint(t, at)), nil)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := w.Run(); err != nil {
					t.Fatal(err)
				}
				checkLeases(t, w)
			}
			if midFlight == 0 {
				t.Error("no cut landed mid-flight (sessions streaming, packets on the wire)")
			}
		})
	}
	// A send buffer restored with its cursor gone back: the segments behind it
	// already have copies on the wire, and are sent — and released — again.
	t.Run("midrto", func(t *testing.T) {
		w, err := Resume(bytes.NewReader(checkpoint(t, midRTOWorld(t))), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Run(); err != nil {
			t.Fatal(err)
		}
		checkLeases(t, w)
	})
}

// TestShardArenaFollowsInFlight: a shard's packet storage is as big as what
// the shard has in flight at once. Every server and player on a shard leases
// from the shard's one arena, so its free-lists hold the shard's high water,
// not each pooled session object's. The open-loop fence world runs classic
// and at two shards; each shard's cells on lease are sampled after every
// event (classic) or window (fabric), and the shard's arena may have carved
// no more cells than its sampled peak plus one chunk per cell class — the
// slack a pool's last chunk and the sampling leave. While every session
// object had an arena of its own, the arenas of one shard together carved
// the sum of their sessions' peaks, several times the shard's.
func TestShardArenaFollowsInFlight(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opt := fenceWorlds[1].opt
			opt.Shards = shards
			w, err := NewWorld(opt)
			if err != nil {
				t.Fatal(err)
			}
			peak, msgPeak := make([]int, len(w.factories)), make([]int, len(w.factories))
			sample := func() {
				for i, f := range w.factories {
					_, leased := f.arena.Cells()
					peak[i] = max(peak[i], leased)
					_, msgs := f.arena.Messages().Cells()
					msgPeak[i] = max(msgPeak[i], msgs)
				}
			}
			if w.fab != nil {
				// stop runs between windows, with every shard quiescent.
				w.fab.Run(func() bool { sample(); return w.finished() })
			} else {
				for !w.finished() && w.Clock.Step() {
					sample()
				}
			}
			if !w.finished() {
				t.Fatal("the world stalled")
			}
			// One chunk per cell class: a pool carves at most lease.Chunk cells
			// and 4 KiB at a time (TestChunksAreSizedInBytes). A field of the
			// arena that is no lease.Pool holds pools of its own (the RTSP
			// message pool), whose classes count the same way.
			chunks := 0
			var classes func(pools reflect.Type)
			classes = func(pools reflect.Type) {
				for i := range pools.NumField() {
					f := pools.Field(i).Type
					if cell, ok := f.FieldByName("rest"); ok {
						chunks += min(max(4<<10/int(cell.Type.Elem().Size()), 1), lease.Chunk)
					} else {
						classes(f)
					}
				}
			}
			classes(reflect.TypeOf(rdt.Arena{}))
			for i, f := range w.factories {
				carved, leased := f.arena.Cells()
				t.Logf("shard %d: arena carved %d cells, peak %d on lease, %d at the end (chunks of all classes: %d cells)", i, carved, peak[i], leased, chunks)
				if peak[i] == 0 {
					t.Errorf("shard %d never had a cell on lease", i)
				}
				if carved > peak[i]+chunks {
					t.Errorf("shard %d's arena carved %d cells for a peak of %d on lease: more than one chunk per cell class (%d cells) above it",
						i, carved, peak[i], chunks)
				}
				// The message class on its own: a session's control exchange
				// leases at most a couple of messages at once, so a pool that
				// carved per request would overshoot its peak at once.
				msgChunk := min(4<<10/int(reflect.TypeOf(rtsp.Message{}).Size()), lease.Chunk)
				msgs, _ := f.arena.Messages().Cells()
				t.Logf("shard %d: %d of those cells are messages, for a peak of %d on lease", i, msgs, msgPeak[i])
				if msgPeak[i] == 0 || msgs > msgPeak[i]+msgChunk {
					t.Errorf("shard %d's arena carved %d messages for a peak of %d on lease, want some, and at most one chunk (%d) above it",
						i, msgs, msgPeak[i], msgChunk)
				}
			}
		})
	}
}
