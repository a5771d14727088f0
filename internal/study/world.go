package study

import (
	"fmt"
	"time"

	"realtracer/internal/detrand"
	"realtracer/internal/geo"
	"realtracer/internal/netsim"
	"realtracer/internal/server"
	"realtracer/internal/session"
	"realtracer/internal/simclock"
	"realtracer/internal/trace"
	"realtracer/internal/tracer"
	"realtracer/internal/transport"
)

// World is one fully-constructed simulated Internet: the RealServers with
// their clip libraries, the 98-entry playlist, the user population, and the
// engine that moves packets between them. A World is single-use: build it
// with NewWorld, drive it with Run.
//
// There is one build sequence and one run loop. NewStatic draws the
// population, builds the route table and the servers' libraries and
// assembles the playlist (static.go); instantiating that static world
// brings up the engine, attaches the servers' hosts, cuts the population
// into arrival cells, starts the servers and arms each cell's first arrival.
// The paper's closed panel (Options.Workload "" or "panel") is a cell per
// user with a budget of one arrival, at the user's stagger instant, whose
// session is drawn and its host attached while the world is built
// (panelCells). An open-loop cell is an arrival stream over a slice of the
// template pool that sustains itself through its SessionFactory, attaching
// each arrival's host and removing it again on departure. Run steps the
// engine until finished reports the work done: every arrival made and every
// session ended.
//
// The engine is the one thing that comes in two kinds. Options.Shards > 0
// partitions the hosts across the per-shard clocks and networks of a
// netsim.Fabric, run in parallel under conservative-lookahead windows; the
// classic engine is one clock and one network, which is that world with one
// shard and no fabric. Either way there is one SessionFactory per shard in
// factories — the classic world's being its only one — and Clock and Net are
// factories[0]'s (build-time code that touches them runs before the shards
// start). What still differs between the two is listed on the fab field.
//
// Each World owns its clocks and networks, so independent Worlds run
// concurrently on separate goroutines — the property the campaign engine
// (internal/campaign) exploits to fan scenario sweeps out across workers.
type World struct {
	// Options is the (filled) configuration the world was built from.
	Options Options
	// Clock is the world's discrete-event clock (shard 0's in a sharded
	// world).
	Clock *simclock.Clock
	// Net is the simulated wide-area network connecting servers and users
	// (shard 0's view in a sharded world).
	Net *netsim.Network
	// Sites, Users, Playlist and ActiveSites are the world's static world's,
	// shared read-only with every world instantiated from it.
	//
	// Sites and Users are the server/user geography for this world. In
	// open-loop mode Users is the template pool arrivals draw from; on the
	// panel, each user is a cell of its own.
	Sites []geo.ServerSite
	Users []*geo.User
	// Playlist is the assembled 98-entry clip list. The closed panel walks
	// it in order; open-loop sessions draw from it by Zipf popularity.
	Playlist []tracer.Entry
	// Servers are the running RealServers, aligned index-for-index with
	// ActiveSites; the least-loaded selection policy probes them.
	Servers []*server.Server
	// ActiveSites are the sites that serve clips (the mirror set).
	ActiveSites []geo.ServerSite

	// fab is the sharded engine's fabric, nil on the classic engine. Every
	// test of it in this package stands for one real difference between the
	// engines, and this is the whole list:
	//
	//   - engine construction (NewWorld): a Fabric's N clocks and networks
	//     with a record buffer per shard, or one clock and one network;
	//   - dynamics install point (NewWorld): before any host exists, or
	//     after Freeze — see installDynamics;
	//   - Fabric.AddHost (attachServers): a sharded host is interned into its
	//     owning shard;
	//   - open-loop cell partition and seed (buildCells): country blocks on
	//     derived seeds, or one cell over the whole pool on the workload seed
	//     (the panel, a cell per user, runs on the classic engine only);
	//   - freeze (NewWorld): template hosts interned up front, then the
	//     tables frozen and shared;
	//   - load gossip (NewWorld) and selectFor's load source: a cell reads
	//     its shard's gossiped view, the classic cell the live counter;
	//   - endSession's teardown: DropClient posted at now+L and the slot
	//     freed at now+2L, or both done on the spot;
	//   - the run loop (Run): Fabric.Run's windows, or Clock.Step;
	//   - the record merge and Result.Windows (Run): per-shard buffers
	//     sorted into the sink, the fabric's window counters reported;
	//   - the RunUntil refusal: a sharded world cannot be partially driven
	//     yet (ROADMAP item 3). Checkpoint has no test of its own: the
	//     network's walk refuses a sharded world.
	fab *netsim.Fabric
	// factories holds one SessionFactory per shard; the classic world's
	// only one is factories[0].
	factories []*SessionFactory
	// cells are the world's arrival cells, in build order: a panel user's
	// each (panelCells), or an open-loop world's over its template pool
	// (buildCells). A session's RNG, stack and tracer are on the
	// sessionBundle it runs on.
	cells []*arrivalCell
	// sink is the only way a record leaves the world: a trace.Collector
	// unless SetSink (or a resumed snapshot's sink section) replaced it.
	sink trace.Sink
	ran  bool

	// Checkpoint wiring (checkpoint.go): the servers' counting RNGs and
	// transport stacks, aligned with Servers/ActiveSites, kept addressable
	// so a snapshot can persist their positions and a restore can overlay
	// them.
	serverRNGs   []*detrand.Rand
	serverStacks []*transport.Stack

	// loads[s][ai] is shard s's gossip-delayed view of server ai's session
	// count (gossip.go); nil unless a sharded world's selection policy
	// reads load.
	loads [][]int
}

// siteShard maps an active-site ordinal (an index into ActiveSites /
// Servers) to its owning shard. Round-robin by ordinal: the mirror set is
// fixed at build time, so the assignment is trivially partition-stable.
func (w *World) siteShard(ai int) int {
	return ai % len(w.factories)
}

// NewWorld builds the simulated Internet for opt: servers brought up, the
// playlist assembled and each arrival cell's first arrival scheduled — a
// panel user's start, or an open-loop stream's first arrival, after which
// the generator sustains itself. The returned World
// has not consumed any virtual time yet; call Run to drive it to completion.
// It is NewStatic(opt) followed by that static world's NewWorld.
func NewWorld(opt Options) (*World, error) {
	s, err := NewStatic(opt)
	if err != nil {
		return nil, err
	}
	return s.NewWorld()
}

// NewWorld instantiates a world on the static world s: the engine, the
// servers and the population's first events, each allocated for this world
// alone, around what s holds. Worlds instantiated from one Static run
// independently, on separate goroutines too.
func (s *Static) NewWorld() (*World, error) {
	opt := s.opt
	w := &World{
		Options:     opt,
		Sites:       s.sites,
		Users:       s.users,
		Playlist:    s.playlist,
		ActiveSites: s.active,
		sink:        &trace.Collector{},
	}
	if opt.Shards > 0 {
		w.fab = netsim.NewFabric(opt.Shards, s.routes, opt.networkSeed())
		for i := 0; i < opt.Shards; i++ {
			w.addFactory(s, w.fab.Clock(i), w.fab.Net(i), &trace.Collector{})
		}
	} else {
		clock := simclock.New()
		net := netsim.New(clock, s.routes, opt.networkSeed())
		net.Reserve(len(s.active) + len(s.users)) // a server per active site, a host per user
		w.addFactory(s, clock, net, nil)
	}
	w.Clock, w.Net = w.factories[0].clock, w.factories[0].net
	if w.fab == nil {
		if err := w.installDynamics(w.Net.SetDynamics); err != nil {
			return nil, err
		}
	}

	w.attachServers()
	if opt.OpenLoop() {
		cells, err := w.buildCells()
		if err != nil {
			return nil, err
		}
		w.cells = cells
	}
	if w.fab != nil {
		if err := w.freeze(); err != nil {
			return nil, err
		}
	}
	if err := w.startServers(s.servers); err != nil {
		return nil, err
	}
	if w.fab != nil && opt.Selection == "leastloaded" {
		w.startLoadGossip()
	}
	if opt.OpenLoop() {
		for _, c := range w.cells {
			c.scheduleArrival()
		}
	} else {
		w.cells = w.panelCells(s.userSeeds)
	}
	return w, nil
}

// addFactory appends the next shard's SessionFactory.
func (w *World) addFactory(s *Static, clock *simclock.Clock, net *netsim.Network, records *trace.Collector) {
	w.factories = append(w.factories, &SessionFactory{
		w:           w,
		clock:       clock,
		net:         net,
		records:     records,
		dynLabel:    w.Options.DynamicsLabel(),
		policyLabel: w.Options.PolicyLabel(),
		dataAddr:    s.dataAddr,
	})
}

// installDynamics compiles the options' dynamics schedule, if any, into the
// engine through set. It is called at the one point of the build where the
// engines must differ: the classic network compiles a schedule's exact host
// patterns by interning them, so it installs before any host exists —
// interning order is snapshot bytes — while a fabric compiles against the
// frozen name table, after Freeze, into one schedule shared read-only across
// the shards (each shard advances chain state only for paths it owns; draws
// come from the per-path streams).
func (w *World) installDynamics(set func(*netsim.Dynamics, int64)) error {
	if w.Options.Dynamics == "" {
		return nil
	}
	spec, err := buildDynamics(w.Options, w.Sites)
	if err != nil {
		return err
	}
	set(spec, w.Options.dynamicsSeed())
	return nil
}

// freeze interns every template host into its cell's shard — up front, in
// population order, so HostIDs are independent of both the partition and the
// arrival order — freezes the fabric's tables and installs the dynamics.
func (w *World) freeze() error {
	shardOf := make([]int, len(w.Users))
	for _, c := range w.cells {
		for _, ui := range c.members {
			shardOf[ui] = c.shard
		}
	}
	for i, u := range w.Users {
		w.fab.Intern(shardOf[i], u.Name)
	}
	w.fab.Freeze(geo.MinOneWayDelay())
	return w.installDynamics(w.fab.SetDynamics)
}

// attachServers attaches each active site's host, in site order. In a
// sharded world the host is interned into the site's owning shard; the
// servers themselves start only after Freeze (startServers), because their
// transport stacks must bind to the shared frozen tables.
func (w *World) attachServers() {
	serverAccess := netsim.DefaultAccessProfile(netsim.AccessServer)
	serverAccess.UpKbps = serverUplinkKbps
	serverAccess.DownKbps = serverUplinkKbps
	for ai, site := range w.ActiveSites {
		cfg := netsim.HostConfig{Name: site.Host, Access: serverAccess}
		if w.fab != nil {
			w.fab.AddHost(w.siteShard(ai), cfg)
		} else {
			w.Net.AddHost(cfg)
		}
	}
}

// startServers brings up the RealServers, one per active site, each on its
// site's seed and library. In a sharded world each server runs on its owning
// shard's clock and network.
func (w *World) startServers(servers []staticServer) error {
	opt := w.Options
	for ai, p := range servers {
		f := w.factories[w.siteShard(ai)]
		drng := detrand.New(p.seed)
		stack := transport.NewStack(f.net, p.site.Host)
		srv := server.New(server.Config{
			Clock:          f.clock,
			Net:            session.SimNet{Stack: stack},
			Library:        p.lib,
			Rand:           drng.Rand,
			Unavailability: p.site.Unavailability,
			SureStream:     !opt.DisableSureStream,
			FEC:            !opt.DisableFEC,
			NewController:  controllerFactory(opt.Controller),
			Arena:          &f.arena,
		})
		if err := srv.Start(); err != nil {
			return fmt.Errorf("study: start %s: %w", p.site.Name, err)
		}
		w.Servers = append(w.Servers, srv)
		w.serverRNGs = append(w.serverRNGs, drng)
		w.serverStacks = append(w.serverStacks, stack)
	}
	return nil
}

// panelCells builds the closed panel — the paper's fixed 63-user campaign —
// as one arrival cell per user, in user order: one member, a budget of one
// arrival, and that arrival armed at the user's start, staggered across the
// window. The user's session is built here, on the user's own stream
// seeds[u]: the host attached (a modem's uplink draw), a tracer over the
// first min(ClipsToPlay, ClipCap) playlist entries, then the stagger draw.
// The byte-identical rule pins those draws and their order, and the start
// events' (time, seq) slots pin the order the cells are built in. Each
// cell's one-template slices view arrays shared by the panel.
func (w *World) panelCells(seeds []int64) []*arrivalCell {
	f, n := w.factories[0], len(w.Users)
	cells, members, ports, busy, held := make([]*arrivalCell, n), make([]int, n), make([]int, n), make([]bool, n), make([]*sessionBundle, n)
	for ui, u := range w.Users {
		members[ui] = ui
		c := &arrivalCell{f: f, ord: ui, arrivalsLeft: 1, members: members[ui : ui+1 : ui+1],
			busy: busy[ui : ui+1 : ui+1], ports: ports[ui : ui+1 : ui+1], bundles: held[ui : ui+1 : ui+1]}
		b := &sessionBundle{cell: c, idx: ui, rng: detrand.New(seeds[ui])}
		f.attach(u, b.rng.Rand)
		clips := u.ClipsToPlay
		if w.Options.ClipCap > 0 {
			clips = min(clips, w.Options.ClipCap)
		}
		b.playlist = w.Playlist[:clips:clips]
		b.tr, b.stack = f.newTracer(u, b.rng.Rand, b.playlist, b.rate, nil, b.onRecord, b.finish)
		c.bundles[0] = b
		c.arrivalTimer = f.clock.AtHandler(time.Duration(b.rng.Int63n(int64(staggerWindow))), (*arriveArm)(c))
		f.pending++
		cells[ui] = c
	}
	return cells
}

// RunUntil drives the world's clock to virtual time t without completing
// the run — the warm-up phase of a checkpoint/fork sweep. It may be called
// repeatedly with increasing t; Run then continues from wherever the
// warm-up stopped. Sharded worlds advance under the fabric's barrier
// protocol and cannot be partially driven.
func (w *World) RunUntil(t time.Duration) error {
	if w.fab != nil {
		return fmt.Errorf("study: RunUntil is not supported on a sharded world")
	}
	if w.ran {
		return fmt.Errorf("study: world already run")
	}
	w.Clock.RunUntil(t)
	return nil
}

// SetSink replaces the world's record sink: each record is handed to s as
// its clip completes and is s's to keep, so the run's memory is bounded by
// what s keeps instead of by the record count. Call before Run. The default
// sink is a trace.Collector, the only sink that fills Result.Records. A
// sharded world still buffers records per shard until the run ends (the
// deterministic merge needs them), then streams the merged order into s.
func (w *World) SetSink(s trace.Sink) {
	if s != nil {
		w.sink = s
	}
}

// Sink returns the world's record sink — after Resume, the sink the
// snapshot's sink section rebuilt, already holding the prefix's state.
func (w *World) Sink() trace.Sink { return w.sink }

// records is what the sink retained: the run's records under a
// trace.Collector, nil under any other sink.
func (w *World) records() []*trace.Record {
	if col, ok := w.sink.(*trace.Collector); ok {
		return col.Records()
	}
	return nil
}

// finished reports whether the run's work is done: every cell's arrival
// budget spent and its last session ended, which is every factory's count
// of outstanding work at zero — at most one number per shard, read before
// every event on the classic engine. On a fabric it runs on the control
// goroutine between windows, with every shard quiescent behind the barrier
// — the counts are stable and the check happens at the same
// (partition-invariant) window boundaries for every shard count.
func (w *World) finished() bool {
	for _, f := range w.factories {
		if f.pending != 0 {
			return false
		}
	}
	return true
}

// Run drives the engine to completion and returns the study result. A run
// stops when every cell's arrival budget is spent and its last session has
// ended: on the panel, when every user has walked their playlist. Stopping on
// completion (rather than on queue exhaustion) keeps lingering per-session
// timers from extending the run; an engine that runs dry first has stalled,
// which is an error, not a hang. A sharded world's records, buffered per
// shard, are then merged into the sink in a partition-invariant order. A
// World can only be run once.
func (w *World) Run() (*Result, error) {
	if w.ran {
		return nil, fmt.Errorf("study: world already run")
	}
	w.ran = true
	if w.fab != nil {
		w.fab.Run(w.finished)
	} else {
		for !w.finished() && w.Clock.Step() {
		}
	}
	t := totals(w.cells)
	if !w.finished() {
		return nil, fmt.Errorf("study: run stalled with %d arrivals pending, %d sessions active",
			t.arrivalsLeft, t.active)
	}
	res := &Result{Users: w.Users}
	if w.fab != nil {
		var all []*trace.Record
		for _, f := range w.factories {
			all = append(all, f.records.Records()...)
		}
		mergeShardRecords(all)
		for _, rec := range all {
			w.sink.Observe(rec)
		}
		res.Windows = w.fab.WindowStats()
	}
	res.Records = w.records()
	res.Sessions, res.Balked, res.Departed = t.sessions, t.balked, t.departed
	for _, f := range w.factories {
		res.SimDuration = max(res.SimDuration, f.clock.Now())
		res.Events += f.clock.Fired()
	}
	return res, nil
}
