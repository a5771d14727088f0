package study

import (
	"fmt"
	"strconv"
	"time"

	"realtracer/internal/detrand"
	"realtracer/internal/geo"
	"realtracer/internal/media"
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
// There is one build sequence and one run loop. NewWorld draws the
// population and the route table, brings up the engine, plans the servers,
// cuts an open-loop world's template pool into arrival cells, starts the
// servers and schedules the first events: every panel user's start (the
// paper's closed loop, Options.Workload "" or "panel"), or each cell's first
// arrival — an open-loop generator then sustains itself through its
// SessionFactory, attaching each arrival's host and removing it again on
// departure. Run steps the engine until finished reports the work done.
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
	// Sites and Users are the server/user geography for this world. In
	// open-loop mode Users is the template pool arrivals draw from, not a
	// set of pre-scheduled participants.
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
	//   - Fabric.AddHost (planServers): a sharded host is interned into its
	//     owning shard;
	//   - cell partition and seed (buildCells): country blocks on derived
	//     seeds, or one cell over the whole pool on the workload seed;
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
	open      *openLoop // nil in closed-loop panel mode
	// sink is the only way a record leaves the world: a trace.Collector
	// unless SetSink (or a resumed snapshot's sink section) replaced it.
	sink      trace.Sink
	remaining int // panel users still to finish
	ran       bool

	// Checkpoint wiring (checkpoint.go): the counting RNGs, transport
	// stacks, tracers and start timers NewWorld creates, kept addressable
	// so a snapshot can persist their positions and a restore can overlay
	// them. The server slices align with Servers/ActiveSites, panel with
	// Users; an open-loop session's are on the sessionBundle it runs on.
	serverRNGs   []*detrand.Rand
	serverStacks []*transport.Stack
	panel        []panelUser

	// loads[s][ai] is shard s's gossip-delayed view of server ai's session
	// count (gossip.go); nil unless a sharded world's selection policy
	// reads load.
	loads [][]int
}

// panelUser is one closed-panel participant's checkpoint wiring.
type panelUser struct {
	rng   *detrand.Rand
	tr    *tracer.Tracer
	stack *transport.Stack
	start simclock.Timer
}

// siteShard maps an active-site ordinal (an index into ActiveSites /
// Servers) to its owning shard. Round-robin by ordinal: the mirror set is
// fixed at build time, so the assignment is trivially partition-stable.
func (w *World) siteShard(ai int) int {
	return ai % len(w.factories)
}

// NewWorld builds the simulated Internet for opt: servers brought up, the
// playlist assembled, and — in panel mode — every user's tracer scheduled
// on the clock. In open-loop mode only each cell's first arrival is
// scheduled; the generator sustains itself from there. The returned World
// has not consumed any virtual time yet; call Run to drive it to completion.
func NewWorld(opt Options) (*World, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	opt.fill()
	w := &World{
		Options: opt,
		Sites:   geo.Sites(),
		sink:    &trace.Collector{},
	}
	// Up to the paper's 63 participants, a prefix of its panel; past them, a
	// proportionally apportioned population at the requested size.
	w.Users = geo.PopulationN(opt.PopulationSeed(), max(opt.pool(), geo.PopulationSize))[:opt.pool()]

	routes := geo.NewRouteTable(w.Sites, w.Users, opt.CongestionScale)

	if opt.Shards > 0 {
		w.fab = netsim.NewFabric(opt.Shards, routes, opt.networkSeed())
		for s := 0; s < opt.Shards; s++ {
			w.addFactory(w.fab.Clock(s), w.fab.Net(s), &trace.Collector{})
		}
	} else {
		clock := simclock.New()
		w.addFactory(clock, netsim.New(clock, routes, opt.networkSeed()), nil)
	}
	w.Clock, w.Net = w.factories[0].clock, w.factories[0].net
	if w.fab == nil {
		if err := w.installDynamics(w.Net.SetDynamics); err != nil {
			return nil, err
		}
	}

	siteSeeds, userSeeds := opt.masterSeeds(w.Sites)
	plans, err := w.planServers(siteSeeds)
	if err != nil {
		return nil, err
	}
	if opt.OpenLoop() {
		cells, err := w.buildCells()
		if err != nil {
			return nil, err
		}
		w.open = &openLoop{cells: cells}
	}
	if w.fab != nil {
		if err := w.freeze(); err != nil {
			return nil, err
		}
	}
	if err := w.startServers(plans); err != nil {
		return nil, err
	}
	if w.fab != nil && opt.Selection == "leastloaded" {
		w.startLoadGossip()
	}
	if w.open == nil {
		w.launchUsers(userSeeds)
	} else {
		for _, c := range w.open.cells {
			c.scheduleArrival()
		}
	}
	return w, nil
}

// addFactory appends the next shard's SessionFactory.
func (w *World) addFactory(clock *simclock.Clock, net *netsim.Network, records *trace.Collector) {
	w.factories = append(w.factories, &SessionFactory{
		w:           w,
		clock:       clock,
		net:         net,
		records:     records,
		dynLabel:    w.Options.DynamicsLabel(),
		policyLabel: w.Options.PolicyLabel(),
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
	for _, c := range w.open.cells {
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

// sitePlan is one active site's build-time plan: its generated library and
// the seed its server will run on.
type sitePlan struct {
	site geo.ServerSite
	lib  *media.Library
	seed int64
}

// planServers walks the site list in order, attaches each active site's
// host, generates its clip library and assembles the playlist; site si's
// server runs on seeds[si]. In a sharded world the host is interned into the
// site's owning shard; the servers themselves start only after Freeze
// (startServers), because their transport stacks must bind to the shared
// frozen tables.
func (w *World) planServers(seeds []int64) ([]sitePlan, error) {
	opt := w.Options
	serverAccess := netsim.DefaultAccessProfile(netsim.AccessServer)
	serverAccess.UpKbps = serverUplinkKbps
	serverAccess.DownKbps = serverUplinkKbps

	var plans []sitePlan
	w.Playlist = make([]tracer.Entry, 0, geo.PlaylistSize)
	for si, site := range w.Sites {
		if site.Clips == 0 {
			continue
		}
		cfg := netsim.HostConfig{Name: site.Host, Access: serverAccess}
		if w.fab != nil {
			w.fab.AddHost(w.siteShard(len(plans)), cfg)
		} else {
			w.Net.AddHost(cfg)
		}
		lib := media.GenerateLibrary(site.Host, site.Clips, opt.librarySeed(si))
		plans = append(plans, sitePlan{site: site, lib: lib, seed: seeds[si]})
		ctrl := site.Host + ":" + strconv.Itoa(session.ControlPort)
		for _, clip := range lib.Clips {
			w.Playlist = append(w.Playlist, tracer.Entry{URL: clip.URL, ControlAddr: ctrl, Site: site})
		}
	}
	if len(w.Playlist) != geo.PlaylistSize {
		return nil, fmt.Errorf("study: playlist has %d entries, want %d", len(w.Playlist), geo.PlaylistSize)
	}
	return plans, nil
}

// startServers brings up the RealServers from their plans. In open-loop
// mode every server carries the full clip set (clips are replicated across
// the mirror sites so a selection policy can re-home any request); the
// panel keeps the paper's layout, each clip only at its home site. In a
// sharded world each server runs on its owning shard's clock and network.
func (w *World) startServers(plans []sitePlan) error {
	opt := w.Options
	var allClips []*media.Clip
	for _, p := range plans {
		allClips = append(allClips, p.lib.Clips...)
	}
	for ai, p := range plans {
		lib := p.lib
		if opt.OpenLoop() {
			lib = media.NewLibrary(allClips)
		}
		f := w.factories[w.siteShard(ai)]
		drng := detrand.New(p.seed)
		stack := transport.NewStack(f.net, p.site.Host)
		srv := server.New(server.Config{
			Clock:          f.clock,
			Net:            session.SimNet{Stack: stack},
			Library:        lib,
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
		w.ActiveSites = append(w.ActiveSites, p.site)
		w.serverRNGs = append(w.serverRNGs, drng)
		w.serverStacks = append(w.serverStacks, stack)
	}
	return nil
}

// launchUsers schedules the closed-loop panel: every user's RealTracer
// run, staggered across the window — the paper's fixed 63-user campaign.
// It is a thin driver over the SessionFactory: user u runs on seeds[u], and
// the byte-identical rule pins the modem and stagger draws from that stream.
func (w *World) launchUsers(seeds []int64) {
	opt := w.Options
	f := w.factories[0]
	w.remaining = len(w.Users)
	for ui, u := range w.Users {
		userRNG := detrand.New(seeds[ui])
		f.attach(u, userRNG.Rand)
		n := u.ClipsToPlay
		if opt.ClipCap > 0 && n > opt.ClipCap {
			n = opt.ClipCap
		}
		tr, stack := f.newTracer(u, userRNG.Rand, w.Playlist[:n], newRater(u, userRNG.Rand).rate, nil,
			f.observe,
			func() { w.remaining-- })
		start := time.Duration(userRNG.Int63n(int64(staggerWindow)))
		// The start event is a pooled handler (the Tracer itself), not a
		// closure, so a checkpoint taken before the user starts can carry it.
		w.panel = append(w.panel, panelUser{rng: userRNG, tr: tr, stack: stack, start: w.Clock.AtHandler(start, tr)})
	}
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

// finished reports whether the run's work is done: every panel user has
// finished, or the arrival budget is spent and the last session has
// departed. On a fabric it runs on the control goroutine between windows,
// with every shard quiescent behind the barrier — the cell counters are
// stable and the check happens at the same (partition-invariant) window
// boundaries for every shard count.
func (w *World) finished() bool {
	if w.open == nil {
		return w.remaining == 0
	}
	for _, c := range w.open.cells {
		if c.arrivalsLeft != 0 || c.active != 0 {
			return false
		}
	}
	return true
}

// Run drives the engine to completion and returns the study result. The
// panel stops when every user finishes; an open-loop run stops when the
// arrival budget is spent and the last session has departed. Stopping on
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
	if !w.finished() {
		if w.open == nil {
			return nil, fmt.Errorf("study: %d users never finished", w.remaining)
		}
		t := w.open.totals()
		return nil, fmt.Errorf("study: open-loop run stalled with %d arrivals pending, %d sessions active",
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
	if w.open != nil {
		t := w.open.totals()
		res.Sessions, res.Balked, res.Departed = t.sessions, t.balked, t.departed
	}
	for _, f := range w.factories {
		res.SimDuration = max(res.SimDuration, f.clock.Now())
		res.Events += f.clock.Fired()
	}
	return res, nil
}
