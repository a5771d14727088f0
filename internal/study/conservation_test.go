package study

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"realtracer/internal/figures"
	"realtracer/internal/netsim"
	"realtracer/internal/trace"
	"realtracer/internal/tracer"
	"realtracer/internal/transport"
)

// TestConservation is the first slice of the invariant oracle: every fence
// world, on every engine that runs it (the closed panel is classic-only),
// retaining its records and streaming them, must balance its books.
func TestConservation(t *testing.T) {
	for _, fw := range fenceWorlds {
		engines := []int{0}
		if fw.opt.OpenLoop() {
			engines = []int{0, 1, 2}
		}
		for _, shards := range engines {
			opt := fw.opt
			opt.Shards = shards
			t.Run(fmt.Sprintf("%s/shards=%d", fw.name, shards), func(t *testing.T) { checkConservation(t, opt) })
		}
	}
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
			if err := w.RunUntil(10 * time.Minute); err != nil {
				t.Fatal(err)
			}
			packets("mid-run")
		}
		res, err := w.Run()
		if err != nil {
			t.Fatal(err)
		}
		packets("at the end")
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
		if active := w.open.totals().active; active != 0 || res.Departed > res.Sessions {
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

// worldTracers returns every tracer the world has built: the panel's, or one
// per open-loop template that has arrived at least once.
func worldTracers(w *World) []*tracer.Tracer {
	var trs []*tracer.Tracer
	for _, p := range w.panel {
		trs = append(trs, p.tr)
	}
	if w.open != nil {
		for _, c := range w.open.cells {
			for _, b := range c.bundles {
				if b != nil {
					trs = append(trs, b.tr)
				}
			}
		}
	}
	return trs
}

// userStacks returns the transport stack of every tracer worldTracers
// returns, by the user's host name.
func userStacks(w *World) map[string]*transport.Stack {
	stacks := map[string]*transport.Stack{}
	for i, p := range w.panel {
		stacks[w.Users[i].Name] = p.stack
	}
	if w.open != nil {
		for _, c := range w.open.cells {
			for _, b := range c.bundles {
				if b != nil {
					stacks[w.Users[b.idx].Name] = b.stack
				}
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
	walk(reflect.ValueOf(w), "World")
}

// leasePools finds every lease.Pool reachable from w — the cell pools of every
// rdt.Arena (server sessions live and pooled, every tracer's) and the segment
// pool of every transport.Stack — keyed by its address, with the path it was
// first reached by.
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
// control and data conn, the control conns a server tracks for its checkpoint
// walk (Server.ctlConns), and the control and data conn of a session, live or
// waiting on the server's free-list. It returns how many it found and how
// many of them froze a backlog, so a caller can tell the walk was not vacuous.
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
// quiescence: nothing is on the wire, so a pooled cell — a packet struct of
// some session's rdt arena, a segment of some host's transport stack — is
// out of its pool only if somebody still holds it. A conn that closed holds
// nothing (checkClosedConns), so the one legitimate holder left is a live
// server session's retransmit window: every server drops every client, the
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
	for _, p := range leasePools(w) {
		cells, free := int(peek(p.pool, "carved").Int()), peek(p.pool, "free").Len()
		if cells != free {
			t.Errorf("leases: %s has %d of %d cells on lease, want none", p.path, cells-free, cells)
		}
		kind := p.pool.Type().Name()
		found[kind]++
		carved[kind] += cells
	}
	// Every server and every tracer has a stack; every tracer has an arena,
	// and the servers' sessions have more. Fewer pools than that, or none
	// ever used, and the audit is not looking at what the run ran on.
	trs := len(worldTracers(w))
	const segs, packets = "Pool[realtracer/internal/transport.tcpSeg]", "Pool[realtracer/internal/rdt.Packet]"
	if found[segs] < len(w.Servers)+trs || found[packets] <= trs ||
		w.ran && (carved[segs] == 0 || carved[packets] == 0) {
		t.Errorf("leases: the audit reached %d segment pools (%d cells carved) and %d arenas (%d packets carved) in a world of %d servers and %d tracers",
			found[segs], carved[segs], found[packets], carved[packets], len(w.Servers), trs)
	}
}

// TestResumedWorldConservesLeases is the resume half of the lease oracle.
// Holder counts and home pointers are not in a snapshot: a resume rebuilds
// them from who holds each restored cell (a session's retransmit window, a
// conn's send and reorder buffers, each segment reference on the
// wire), and what it cannot give a home — packets restored by value off the
// wire — it leaves to the garbage collector. Every fence world is cut at six
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
