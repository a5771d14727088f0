package study

import (
	"fmt"
	"math/rand"
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
	"realtracer/internal/vclock"
)

// World is one fully-constructed simulated Internet: the discrete-event
// clock, the wide-area network, the RealServers with their clip libraries,
// and the 98-entry playlist. In the default closed-loop panel mode every
// user's RealTracer session is already scheduled across the stagger window
// at build time, exactly as the paper ran; in open-loop mode (see
// Options.Workload) nothing is pre-scheduled — a workload generator admits
// sessions over virtual time through the SessionFactory, attaching each
// arrival's host and removing it again on departure. A World is
// single-use: build it with NewWorld, drive it with Run.
//
// Each World owns a private clock and network, so independent Worlds can
// run concurrently on separate goroutines — the property the campaign
// engine (internal/campaign) exploits to fan scenario sweeps out across
// workers. Options.Shards instead parallelizes a single world: hosts are
// partitioned across per-shard clocks and networks under a netsim.Fabric,
// and Clock/Net then alias shard 0 — build-time code paths that touch them
// run before the shards start.
type World struct {
	// Options is the (filled) configuration the world was built from.
	Options Options
	// Clock is the world's private discrete-event clock (shard 0's clock
	// in a sharded world).
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

	factory *SessionFactory
	open    *openLoop // nil in closed-loop panel mode
	// sink is the only way a record leaves the world: a trace.Collector
	// unless SetSink (or a resumed snapshot's sink section) replaced it.
	sink      trace.Sink
	remaining int
	ran       bool

	// Checkpoint wiring (checkpoint.go): the counting RNGs, transport
	// stacks, tracers and start timers NewWorld creates, kept addressable
	// so a snapshot can persist their positions and a restore can overlay
	// them. Server slices align with Servers/ActiveSites; the panel slices
	// align with Users. stacks maps a user host name to its template's
	// transport stack (tracked only on the classic unsharded engine —
	// sharded worlds are not checkpointable).
	serverRNGs   []*detrand.Rand
	serverStacks []*transport.Stack
	userRNGs     []*detrand.Rand
	tracers      []*tracer.Tracer
	startTimers  []simclock.Timer
	stacks       map[string]*transport.Stack

	// Sharded-execution state (Options.Shards > 0): the fabric, one
	// factory and one record sink per shard.
	fab        *netsim.Fabric
	factories  []*SessionFactory
	shardSinks []*trace.Collector
	// loads[s][ai] is shard s's gossip-delayed view of server ai's session
	// count (gossip.go); nil unless the selection policy reads load.
	loads [][]int
}

// clockFor returns the clock driving shard's events; shard -1 is the
// classic single-threaded world.
func (w *World) clockFor(shard int) *simclock.Clock {
	if shard < 0 || w.fab == nil {
		return w.Clock
	}
	return w.fab.Clock(shard)
}

// netFor returns shard's Network view; shard -1 is the classic world.
func (w *World) netFor(shard int) *netsim.Network {
	if shard < 0 || w.fab == nil {
		return w.Net
	}
	return w.fab.Net(shard)
}

// factoryFor returns shard's session factory; shard -1 is the classic
// world's single factory.
func (w *World) factoryFor(shard int) *SessionFactory {
	if shard < 0 || w.fab == nil {
		return w.factory
	}
	return w.factories[shard]
}

// siteShard maps an active-site ordinal (an index into ActiveSites /
// Servers) to its owning shard. Round-robin by ordinal: the mirror set is
// fixed at build time, so the assignment is trivially partition-stable.
func (w *World) siteShard(ai int) int {
	return ai % w.Options.Shards
}

// NewWorld builds the simulated Internet for opt: servers brought up, the
// playlist assembled, and — in panel mode — every user's tracer scheduled
// on the clock. In open-loop mode only the first arrival is scheduled; the
// generator sustains itself from there. The returned World has not
// consumed any virtual time yet; call Run to drive it to completion.
func NewWorld(opt Options) (*World, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	opt.fill()
	w := &World{
		Options: opt,
		Sites:   geo.Sites(),
		stacks:  make(map[string]*transport.Stack),
		sink:    &trace.Collector{},
	}
	masterRNG := rand.New(rand.NewSource(opt.Seed))

	if opt.MaxUsers > geo.PopulationSize {
		// Scale past the paper's 63-participant panel: a proportionally
		// apportioned population at the requested size.
		w.Users = geo.PopulationN(opt.Seed+1, opt.MaxUsers)
	} else {
		w.Users = geo.Population(opt.Seed + 1)
		if opt.MaxUsers > 0 && opt.MaxUsers < len(w.Users) {
			w.Users = w.Users[:opt.MaxUsers]
		}
	}

	routes := geo.NewRouteTable(w.Sites, w.Users, opt.Seed+2)
	routes.CongestionScale = opt.CongestionScale

	if opt.Shards > 0 {
		if err := w.buildSharded(routes, masterRNG); err != nil {
			return nil, err
		}
		return w, nil
	}

	w.Clock = simclock.New()
	w.Net = netsim.New(w.Clock, routes, opt.Seed+3)

	if opt.Dynamics != "" {
		spec, err := buildDynamics(opt, w.Sites)
		if err != nil {
			return nil, err
		}
		dseed := opt.DynamicsSeed
		if dseed == 0 {
			dseed = opt.Seed + 4
		}
		w.Net.SetDynamics(spec, dseed)
	}

	plans, err := w.planServers(masterRNG)
	if err != nil {
		return nil, err
	}
	if err := w.startServers(plans); err != nil {
		return nil, err
	}
	w.factory = &SessionFactory{
		w:           w,
		clock:       w.Clock,
		net:         w.Net,
		dynLabel:    opt.DynamicsLabel(),
		policyLabel: opt.PolicyLabel(),
	}
	if opt.OpenLoop() {
		if err := w.startWorkload(); err != nil {
			return nil, err
		}
	} else {
		w.launchUsers(masterRNG)
	}
	return w, nil
}

// sitePlan is one active site's build-time plan: its generated library and
// the master-RNG seed its server will run on.
type sitePlan struct {
	site geo.ServerSite
	lib  *media.Library
	seed int64
}

// planServers walks the site list in order, attaches each active site's
// host, generates its clip library and assembles the playlist. The
// masterRNG draw order — one Int63 per active site — is identical in every
// mode, which is what keeps panel worlds byte-identical and sharded worlds
// partition-invariant. In a sharded world the host is interned into the
// site's owning shard; the servers themselves start only after Freeze
// (startServers), because their transport stacks must bind to the shared
// frozen tables.
func (w *World) planServers(masterRNG *rand.Rand) ([]sitePlan, error) {
	opt := w.Options
	serverAccess := netsim.DefaultAccessProfile(netsim.AccessServer)
	serverAccess.UpKbps = opt.ServerUplinkKbps
	serverAccess.DownKbps = opt.ServerUplinkKbps

	var plans []sitePlan
	for si, site := range w.Sites {
		if site.Clips == 0 {
			continue
		}
		cfg := netsim.HostConfig{Name: site.Host, Access: serverAccess}
		if w.fab != nil {
			w.fab.AddHost(len(plans)%opt.Shards, cfg)
		} else {
			w.Net.AddHost(cfg)
		}
		lib := media.GenerateLibrary(site.Host, site.Clips, opt.Seed+100+int64(si))
		plans = append(plans, sitePlan{site: site, lib: lib, seed: masterRNG.Int63()})
		for _, clip := range lib.Clips {
			w.Playlist = append(w.Playlist, tracer.Entry{
				URL:         clip.URL,
				ControlAddr: fmt.Sprintf("%s:%d", site.Host, session.ControlPort),
				Site:        site,
			})
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
		shard := -1
		if w.fab != nil {
			shard = w.siteShard(ai)
		}
		drng := detrand.New(p.seed)
		stack := transport.NewStack(w.netFor(shard), p.site.Host)
		srv := server.New(server.Config{
			Clock:          vclock.Sim{C: w.clockFor(shard)},
			Net:            session.SimNet{Stack: stack},
			Library:        lib,
			Rand:           drng.Rand,
			Unavailability: p.site.Unavailability,
			SureStream:     !opt.DisableSureStream,
			FEC:            !opt.DisableFEC,
			NewController:  controllerFactory(opt.Controller),
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
// It is now a thin driver over the SessionFactory; the byte-identical rule
// pins its RNG draw order (one Int63 per user, then the modem and stagger
// draws from the user's own RNG).
func (w *World) launchUsers(masterRNG *rand.Rand) {
	opt := w.Options
	w.remaining = len(w.Users)
	for _, u := range w.Users {
		userRNG := detrand.New(masterRNG.Int63())
		w.factory.attach(u, userRNG.Rand)
		n := u.ClipsToPlay
		if opt.ClipCap > 0 && n > opt.ClipCap {
			n = opt.ClipCap
		}
		tr := w.factory.newTracer(u, userRNG.Rand, w.Playlist[:n], nil,
			w.factory.observe,
			func() { w.remaining-- })
		start := time.Duration(userRNG.Int63n(int64(opt.StaggerWindow)))
		// The start event is a pooled handler (the Tracer itself), not a
		// closure, so a checkpoint taken before the user starts can carry it.
		w.userRNGs = append(w.userRNGs, userRNG)
		w.tracers = append(w.tracers, tr)
		w.startTimers = append(w.startTimers, w.Clock.AtHandler(start, tr))
	}
}

// trackStack records a user template's transport stack for checkpointing.
// Sharded factories build stacks concurrently on shard goroutines — and a
// sharded world is not checkpointable anyway — so only the classic engine
// tracks them.
func (w *World) trackStack(name string, st *transport.Stack) {
	if w.fab != nil || w.stacks == nil {
		return
	}
	w.stacks[name] = st
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

// Run drives the clock to completion and returns the study result. The
// panel stops when every user finishes; an open-loop run stops when the
// arrival budget is spent and the last session has departed. Stopping on
// completion (rather than on queue exhaustion) keeps lingering per-session
// timers from extending the run. A World can only be run once.
func (w *World) Run() (*Result, error) {
	if w.ran {
		return nil, fmt.Errorf("study: world already run")
	}
	w.ran = true
	if w.fab != nil {
		return w.runSharded()
	}
	if w.open != nil {
		c := w.open.cells[0] // the classic open loop is a single cell
		for (c.arrivalsLeft > 0 || c.active > 0) && w.Clock.Step() {
		}
		if c.arrivalsLeft != 0 || c.active != 0 {
			return nil, fmt.Errorf("study: open-loop run stalled with %d arrivals pending, %d sessions active",
				c.arrivalsLeft, c.active)
		}
	} else {
		for w.remaining > 0 && w.Clock.Step() {
		}
		if w.remaining != 0 {
			return nil, fmt.Errorf("study: %d users never finished", w.remaining)
		}
	}
	res := &Result{
		Records:     w.records(),
		Users:       w.Users,
		Sites:       w.Sites,
		SimDuration: w.Clock.Now(),
		Events:      w.Clock.Fired(),
	}
	if w.open != nil {
		res.Sessions = w.open.sessionsN()
		res.Balked = w.open.balkedN()
		res.Departed = w.open.departedN()
	}
	return res, nil
}
