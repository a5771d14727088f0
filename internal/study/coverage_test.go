package study

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"realtracer/internal/figures"
	"realtracer/internal/snap"
)

// TestSyncCoversEveryField is the drift fence for the one-walk rule. It
// drives each fence world to its mid-run cut — once retaining records, once
// streaming into figures.Aggregates — and one more world each to an instant
// with a TCP dial in flight, to one with a NACK on the wire, to one with a
// timed-out TCP flight waiting to be sent again and to one with a SETUP
// request (a header list) on the wire, then reflects
// over every object reachable from the World and perturbs each scalar field
// in place: a field is covered when some perturbation of it changes the bytes
// the Sync walk writes. A field that never does must be named in syncExempt
// with the reason it needs no place in a snapshot — so forgetting to add a
// new field to its type's Sync fails here, by name, instead of as a silently
// divergent resume. The exemption list is kept honest the same way: an
// entry for a field its type no longer has, or one a Sync walk does write,
// fails too.
func TestSyncCoversEveryField(t *testing.T) {
	if testing.Short() {
		t.Skip("perturbs every reachable field of the mid-run fence worlds")
	}
	cw := &coverage{
		state: map[string]int{},
		types: map[string]bool{},
		used:  map[string]bool{},
	}
	inputs := map[string]*World{"middial": midDialWorld(t), "midnack": midNackWorld(t), "midrto": midRTOWorld(t), "midsetup": midSetupWorld(t)}
	for _, fw := range fenceWorlds {
		inputs[fw.name] = fenceWorld(t, fw.opt)
		// The same cut of a world streaming into aggregates: the walk reaches
		// them (and every stats accumulator under them) through World.sink.
		sw, err := NewWorld(fw.opt)
		if err != nil {
			t.Fatal(err)
		}
		sw.SetSink(figures.NewAggregates())
		if err := sw.RunUntil(inputs[fw.name].Clock.Now()); err != nil {
			t.Fatal(err)
		}
		inputs[fw.name+"/streamed"] = sw
	}
	for name, w := range inputs {
		cw.w, cw.visited, cw.tries = w, map[visit]bool{}, map[string]int{}
		cw.base = cw.encode()
		if cw.base == nil {
			t.Fatalf("%s: baseline walk failed", name)
		}
		cw.walk(reflect.ValueOf(w))
		if !bytes.Equal(cw.encode(), cw.base) {
			t.Fatalf("%s: the world does not encode to its baseline after every perturbation was undone", name)
		}
	}

	var ids []string
	for id := range cw.state {
		ids = append(ids, id)
	}
	for id := range syncExempt {
		if _, reached := cw.state[id]; !reached {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		_, exempt := syncExempt[id]
		switch st := cw.state[id]; {
		case st == fieldSeen && !exempt:
			t.Errorf("field %s is reachable from study.World but no Sync walk writes it: add it to its type's Sync (and bump snapMagic), or list it in syncExempt with the reason it is derived or transient", id)
		case st == fieldCovered && exempt:
			t.Errorf("syncExempt lists %s, but a Sync walk writes it: drop the entry", id)
		case exempt && !cw.used[id] && cw.types[id[:strings.LastIndex(id, ".")]]:
			t.Errorf("syncExempt lists %s, but the type has no such field any more: drop the entry", id)
		case exempt && !cw.used[id]:
			t.Logf("syncExempt entry %s was not reached in any fence world", id)
		}
	}
}

const (
	fieldSeen    = 1 // reached, no perturbation changed the snapshot yet
	fieldCovered = 2
)

type visit struct {
	ptr uintptr
	typ reflect.Type
}

type coverage struct {
	w       *World
	base    []byte
	visited map[visit]bool
	state   map[string]int  // "pkg.Type.field" -> fieldSeen / fieldCovered
	types   map[string]bool // "pkg.Type" of every struct walked
	tries   map[string]int  // instances perturbed so far, per world
	used    map[string]bool // syncExempt entries that matched something
}

// maxTries bounds how many instances of one uncovered field are perturbed
// per world before giving up on it there (conditionally-written fields need
// more than one instance; a field nothing writes would otherwise cost one
// snapshot per object).
const maxTries = 48

// encode runs the world's Sync walk, or returns nil when the walk failed or
// panicked — which, for a perturbed world, proves the walk read the field.
func (cw *coverage) encode() (out []byte) {
	defer func() {
		if recover() != nil {
			out = nil
		}
	}()
	var buf bytes.Buffer
	c := snap.NewEncoder(&buf)
	syncHeader(c, &cw.w.Options)
	cw.w.sync(c, nil)
	if c.Err() != nil {
		return nil
	}
	return buf.Bytes()
}

func typeID(t reflect.Type) string {
	pkg := t.PkgPath()
	return pkg[strings.LastIndex(pkg, "/")+1:] + "." + t.Name()
}

// exempt reports (and records the use of) a syncExempt entry.
func (cw *coverage) exempt(id string) bool {
	if _, ok := syncExempt[id]; ok {
		cw.used[id] = true
		return true
	}
	return false
}

// walk visits everything reachable from v, which must be addressable or a
// pointer.
func (cw *coverage) walk(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return
		}
		// The *Arm types are pointer-conversion timer-handler views of an
		// object the world also reaches, and judges, under its own type.
		k := visit{v.Pointer(), v.Type()}
		if cw.visited[k] || strings.HasSuffix(v.Type().Elem().Name(), "Arm") {
			return
		}
		cw.visited[k] = true
		cw.walk(v.Elem())
	case reflect.Interface:
		// Only pointers held in interfaces can be perturbed in place; every
		// stateful payload, handler and controller in the world is one.
		if !v.IsNil() && v.Elem().Kind() == reflect.Pointer {
			cw.walk(v.Elem())
		}
	case reflect.Struct:
		tid := typeID(v.Type())
		if cw.exempt(tid) {
			return
		}
		cw.types[tid] = true
		for i := 0; i < v.NumField(); i++ {
			id := tid + "." + v.Type().Field(i).Name
			f := v.Field(i)
			f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem() // settable even when unexported
			if f.Kind() == reflect.Func {
				continue // wiring: every callback is rebound by NewWorld, none is state
			}
			undo := perturb(f)
			if undo != nil {
				cw.leaf(id, undo)
			}
			if !cw.exempt(id) {
				cw.walk(f)
			}
		}
	case reflect.Slice, reflect.Array:
		// Arrays too: the clock's tick ring is one, and every event more than
		// a near-heap window away — a packet on a WAN hop — hangs off it.
		if k := v.Type().Elem().Kind(); k == reflect.Pointer || k == reflect.Interface || k == reflect.Struct || k == reflect.Slice || k == reflect.Array || k == reflect.Map {
			for i := 0; i < v.Len(); i++ {
				cw.walk(v.Index(i))
			}
		}
	case reflect.Map:
		if k := v.Type().Elem().Kind(); k == reflect.Pointer || k == reflect.Interface {
			for it := v.MapRange(); it.Next(); {
				cw.walk(it.Value())
			}
		}
	}
}

// leaf judges one perturbed field: covered when the snapshot bytes moved.
// undo has already been armed by perturb; it is always run.
func (cw *coverage) leaf(id string, undo func()) {
	defer undo()
	if cw.state[id] == fieldCovered {
		return
	}
	cw.state[id] = fieldSeen
	limit := maxTries
	if _, exempt := syncExempt[id]; exempt {
		limit = 1 // enough to catch an exemption for a field that is in fact written
	}
	if cw.tries[id] >= limit {
		return
	}
	cw.tries[id]++
	if got := cw.encode(); !bytes.Equal(got, cw.base) {
		cw.state[id] = fieldCovered
	}
}

// perturb changes a field's value in place and returns the undo, or nil for
// kinds that carry no scalar state of their own (containers of objects are
// judged through the fields of what they contain).
func perturb(f reflect.Value) (undo func()) {
	old := reflect.New(f.Type()).Elem()
	old.Set(f)
	restore := func() { f.Set(old) }
	switch f.Kind() {
	case reflect.Bool:
		f.SetBool(!f.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f.SetInt(f.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		f.SetUint(f.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		f.SetFloat(math.Float64frombits(math.Float64bits(f.Float()) ^ 1))
	case reflect.String:
		f.SetString(f.String() + "~")
	case reflect.Slice, reflect.Array:
		// A sequence of scalars is one field: nudge its last element.
		if k := f.Type().Elem().Kind(); f.Len() == 0 || k > reflect.Float64 && k != reflect.String {
			return nil
		}
		return perturb(f.Index(f.Len() - 1))
	case reflect.Map:
		// A map is one field: drop one entry — the one with the smallest
		// key as printed, so that which entry goes, and with it the verdict,
		// does not depend on map iteration order.
		if f.Len() == 0 {
			return nil
		}
		keys := f.MapKeys()
		k := slices.MinFunc(keys, func(a, b reflect.Value) int {
			return strings.Compare(fmt.Sprint(a), fmt.Sprint(b))
		})
		val := f.MapIndex(k)
		f.SetMapIndex(k, reflect.Value{})
		return func() { f.SetMapIndex(k, val) }
	default:
		return nil
	}
	return restore
}

// syncExempt names every type and field reachable from a World that no
// Sync walk writes, with the reason it does not need to be in a snapshot. A
// "pkg.Type" entry exempts the whole type (the walk does not descend into
// it); a "pkg.Type.field" entry exempts one field and whatever hangs off it.
// Func-typed fields are exempt by rule: callbacks are wiring NewWorld
// rebinds, never state.
var syncExempt = map[string]string{
	// The static world: rebuilt by NewWorld from the snapshot's Options,
	// replaying the same build-time draws.
	"netsim.dynState": "compiled schedule; its draw stream is walked through Network.Sync directly",
	"rand.Rand":       "math/rand internals; the stream position is walked as (seed, draw count)",
	"rand.rngSource":  "math/rand internals, as above",

	// Pools, free-lists and scratch: storage, not state. Live objects are
	// reached — and judged — through whatever references them.
	"simclock.Clock.free":       "recycled events",
	"simclock.Clock.cells":      "uncarved events",
	"netsim.Network.free":       "recycled packets",
	"netsim.Network.cells":      "uncarved packets",
	"netsim.Network.hostFree":   "recycled host objects",
	"netsim.Network.pathFree":   "recycled path states",
	"netsim.Network.paths":      "uncarved path states",
	"netsim.Network.rowCells":   "uncarved path-row storage",
	"netsim.Network.dynScratch": "per-call scratch",
	"transport.Stack.ackFree":   "recycled ACKs",
	"transport.Stack.segs":      "recycled and uncarved segments; live segments are walked through an open conn's send and reorder buffers, and the wire",
	"transport.Stack.connFree":  "recycled conn storage: cleared window rings and unbound ports, capacity and wiring only; a restored stack starts without any",
	"transport.simTCP.port":     "the packet handler netsim holds for the conn, bound once to storage the host's conns pass on; a restored open conn registers one anew",
	"transport.simTCP.dial":     "the conn's dial record: zero unless the conn dials, and then walked, timers and all, through Stack.dials, which points at it",
	"server.Server.sessFree":    "recycled sessions",
	"study.arrivalCell.cands":   "per-pick scratch",
	"study.SessionFactory.idle": "bundles between sessions: bound to no template and holding nothing the clock can reach, so a resume starts without any",
	"player.Player.nackScratch": "per-flush scratch",
	"player.Player.descBuf":     "DESCRIBE parse scratch; the session's description is the walked desc",
	"player.Player.waits":       "idle dial continuations; a dial in flight is walked by its stack and re-attached by the player",
	"simclock.Event._":          "cache-line padding",
	"transport.tcpAck.origin":   "free-list provenance; a restored ACK is garbage-collected instead",

	// Lease bookkeeping: where a pooled cell goes back to and who still reads
	// it. None of it is in a snapshot.
	"rdt.Packet.home":         "rebuilt on restore from who holds the cell: a restored packet is in no arena and is garbage-collected",
	"rdt.Nack.cell":           "rebuilt on restore from who holds the cell: a restored NACK is in no arena",
	"rdt.Repair.cell":         "rebuilt on restore from who holds the cell: a restored repair packet is in no arena",
	"transport.tcpSeg.holds":  "rebuilt on restore from who holds the cell: send buffer, reorder buffer, each reference on the wire",
	"transport.tcpAck.leased": "rebuilt on restore from who holds the cell: a restored ACK is in no free-list",
	"rtsp.Message.home":       "rebuilt on restore from who holds the cell: a restored message is in no arena and is garbage-collected",
	"rtsp.Message.leased":     "rebuilt on restore from who holds the cell: a restored message is in no arena",

	// Derived values: recomputed from walked state by the restore path.
	"simclock.Clock.live":                "count of armed events, rebuilt by re-arming",
	"simclock.Clock.nearEnd":             "near-heap horizon, set from the walked now and rebuilt by re-arming",
	"simclock.Clock.occ":                 "ring occupancy bitmap, rebuilt by re-arming",
	"simclock.Clock.occSum":              "summary of the ring occupancy bitmap, rebuilt by re-arming",
	"simclock.Clock.ringN":               "count of ring-chained events, rebuilt by re-arming",
	"simclock.Clock.owned":               "an encoding walk's record of the events it persisted, for CheckOwned; nil outside a walk",
	"netsim.Network.ids":                 "inverse of the walked names table",
	"netsim.Network.frozen":              "sharded worlds only",
	"netsim.Network.pathSeed":            "sharded worlds only",
	"netsim.pathState.seeded":            "sharded worlds only",
	"netsim.Network.shardIdx":            "sharded worlds only",
	"netsim.Packet.edge":                 "sharded worlds only: the network's walk refuses a sharded network",
	"netsim.Network.routes":              "static route table",
	"netsim.HostConfig.Name":             "the walked names table at the host's walked ID",
	"netsim.host.upBps":                  "derived from the walked access profile",
	"netsim.host.downBps":                "derived from the walked access profile",
	"netsim.host.handlers":               "re-registered by the restored conns and the rebuilt listeners",
	"netsim.host.ports":                  "dense mirror of handlers",
	"netsim.host.portBase":               "dense mirror of handlers",
	"netsim.Route.OneWayDelay":           "rederived from the route table when the path is recreated",
	"netsim.Route.Jitter":                "rederived from the route table",
	"netsim.Route.LossRate":              "rederived from the route table",
	"netsim.Route.CapacityKbps":          "rederived from the route table",
	"netsim.pathState.capBps":            "derived from the route",
	"transport.Stack.host":               "bound by the owner: a panel user's name, or the name of the template an open-loop bundle is walked under",
	"transport.Stack.hostID":             "interned from host",
	"transport.endpoint.id":              "interned from the walked addr",
	"transport.endpoint.port":            "parsed from the walked addr",
	"transport.simTCP.accepted":          "the listener's accept table the conn is in: set by Listen, and by the Stack.Sync walk of that table",
	"transport.tcpSeg.transit":           "sharded worlds only",
	"transport.tcpAck.transit":           "sharded worlds only",
	"transport.udpPortConn":              "stateless view, rebuilt by ConnFor from the session's walked ClientDataAddr",
	"server.Server.cfg":                  "rebuilt from Options",
	"server.Server.byDataAddr":           "index of sessions by walked ClientDataAddr",
	"server.Server.descBody":             "rendered on first DESCRIBE",
	"server.Server.setupTransport":       "rendered on the first SETUP of each protocol from the server's fixed data addresses",
	"player.Player.bandwidths":           "rendered Bandwidth values, by cap",
	"figures.Aggregates.psKeys":          "interned policyServer labels, rebuilt as records arrive",
	"server.Server.udpPort":              "rebuilt by Server.Start",
	"server.streamSession.clip":          "looked up from the walked URL",
	"server.streamSession.srcStore":      "storage behind src",
	"media.FrameSource.clip":             "rebuilt by Reset from the session's clip and walked encIdx",
	"media.FrameSource.enc":              "rebuilt by Reset",
	"media.FrameSource.scenes":           "the clip's, laid out on its first playout; pointed at by Reset",
	"player.Config.Arena":                "packet storage: the shard's arena; restore starts it empty",
	"study.SessionFactory.arena":         "packet storage; restore starts it empty",
	"player.Config.Clock":                "owner-supplied environment",
	"player.Config.Net":                  "owner-supplied environment",
	"player.Config.Rand":                 "owner-supplied environment",
	"player.Config.CPU":                  "owner-supplied environment",
	"player.Config.DisableScalableVideo": "ablation knob the tracer never sets",
	"tracer.Tracer.cfg":                  "owner wiring, see tracer.Config",
	"study.World.Sites":                  "static",
	"study.World.Users":                  "static",
	"study.World.Playlist":               "static",
	"study.World.ActiveSites":            "static",
	"study.World.factories":              "wiring",
	"study.SessionFactory.dynLabel":      "rebuilt from Options",
	"study.SessionFactory.policyLabel":   "rebuilt from Options",
	"study.World.ran":                    "set by Run; a resumed world has not run yet",
	"study.arrivalCell.shard":            "fixed at build",
	"study.arrivalCell.ord":              "fixed at build",
	"study.arrivalCell.spec":             "rebuilt from Options",
	"study.arrivalCell.members":          "fixed at build",
	"study.sessionBundle.mi":             "the template the bundle is walked under",
	"study.SessionFactory.live":          "count of the walked busy flags",
	"study.SessionFactory.peak":          "high-water mark of live, a diagnostic; a resume restarts it at live",
	"study.sessionBundle.playlist":       "re-derived from the walked clip indices",
}
