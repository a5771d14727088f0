// Package netsim is a deterministic discrete-event network simulator.
//
// It stands in for the June-2001 Internet of the paper: hosts attach to the
// network through access links (56k modem, DSL/Cable, T1/LAN), wide-area
// routes between geographic sites contribute propagation delay, random loss
// and time-varying cross-traffic, and every path is shaped by a fluid
// bottleneck queue (drop-tail) that produces queueing delay and overflow
// loss exactly where a real router would.
//
// The simulator delivers opaque packets between registered handlers; the
// transport layer (internal/transport) builds TCP and UDP semantics on top.
//
// A packet crosses three link stages, each written once: the source host's
// uplink, the wide-area path (wan) and the destination host's downlink. Send
// composes all three on the classic engine; in a sharded world (fabric.go) it
// stops after the wide area and the shard that owns the destination runs the
// same downlink when the packet reaches the WAN edge. Every packet the
// network will not deliver leaves through one exit, drop.
//
// The per-packet path is allocation-free in steady state: host names are
// interned to dense HostIDs (Intern/AddHost), the per-ordered-pair path
// state lives in one table of per-source rows indexed rows[from][to] — a row
// is as long as the highest destination its source has sent to, so the table
// costs O(servers x users) slots at any size — packets come from a free-list
// (Obtain) and are released back on delivery or drop, and delivery is
// scheduled through the clock's pooled handler events — the Packet itself is
// the EventHandler.
package netsim

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"realtracer/internal/detrand"
	"realtracer/internal/lease"
	"realtracer/internal/simclock"
)

// Addr identifies a host endpoint ("host:port" style, but opaque to netsim).
type Addr string

// Host returns the host component of the address (everything before the
// final ':'), or the whole address when there is no port.
func (a Addr) Host() string {
	s := string(a)
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == ':' {
			return s[:i]
		}
	}
	return s
}

// Port returns the numeric port component of the address (everything after
// the final ':'), or 0 when there is no port or it is not a small decimal
// number. Transports parse an address once per connection and carry the
// result in Packet.FromPort/ToPort so per-packet delivery can use the dense
// port table instead of a string-keyed map lookup.
func (a Addr) Port() int32 {
	s := string(a)
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] != ':' {
			continue
		}
		digits := s[i+1:]
		if len(digits) == 0 || len(digits) > 7 {
			return 0
		}
		var p int32
		for j := 0; j < len(digits); j++ {
			ch := digits[j]
			if ch < '0' || ch > '9' {
				return 0
			}
			p = p*10 + int32(ch-'0')
		}
		return p
	}
	return 0
}

// HostID is a dense interned host identity. The zero HostID names no host.
// A name keeps its HostID forever — across RemoveHost and re-AddHost — so a
// cached ID can never deliver to the wrong host.
type HostID int32

// Packet is a unit of transfer. Payload is carried by reference (the
// simulation does not serialize); Size is what occupies link capacity.
//
// Every packet is leased from Network.Obtain, and the network releases it
// back to the free-list after the destination handler returns (or on drop),
// so handlers must not retain a *Packet past the callback — copy the fields
// they need. The Payload is on lease too, by one rule for every Send
// (transit.go): the network releases it when it drops the packet or has
// snapshotted it for another shard, the handler releases what it is handed.
//
// The sender resolves both ends once (see Intern) and hands Send the hosts'
// interned identities in FromID/ToID and the ports of From/To, pre-parsed,
// in FromPort/ToPort: Send looks nothing up by name. A nonzero ToPort lets
// delivery hit the destination host's dense port table instead of the
// string-keyed handler map, and FromPort lets a reply path reuse the
// sender's port without parsing. A zero port, or one past the dense table's
// span, is delivered through the map.
type Packet struct {
	From, To     Addr
	FromID, ToID HostID
	FromPort     int32
	ToPort       int32
	Size         int // bytes on the wire, including all header overhead
	Payload      any

	net *Network // delivery context; set by Send
	// edge marks a sharded-mode packet scheduled at its WAN-edge arrival
	// time: the destination access downlink has not been applied yet (the
	// shard that owns the destination host does that — see Fabric). Always
	// false on the classic single-shard path.
	edge bool
}

// Fire implements simclock.EventHandler: a scheduled Packet delivers itself.
// This replaces the per-packet delivery closure the scheduler used to
// allocate.
func (pkt *Packet) Fire(time.Duration) { pkt.net.deliver(pkt) }

// Handler receives packets addressed to a registered Addr.
type Handler func(pkt *Packet)

// AccessClass is the end-host network configuration from the study's
// user-information dialog.
type AccessClass int

const (
	AccessModem AccessClass = iota // 56k modem
	AccessDSLCable
	AccessT1LAN
	AccessServer // well-provisioned server uplink
)

// String returns the label used in the paper's figures.
func (a AccessClass) String() string {
	switch a {
	case AccessModem:
		return "56k Modem"
	case AccessDSLCable:
		return "DSL/Cable"
	case AccessT1LAN:
		return "T1/LAN"
	case AccessServer:
		return "Server"
	default:
		return fmt.Sprintf("AccessClass(%d)", int(a))
	}
}

// AccessProfile describes an access link's steady-state characteristics.
type AccessProfile struct {
	DownKbps float64 // downstream capacity
	UpKbps   float64 // upstream capacity
	// QueueDelayMax is the worst-case buffering at the access link before
	// drop-tail loss (router buffer expressed in time at line rate).
	QueueDelayMax time.Duration
	// BaseDelay is the access technology's first-hop latency (modems add
	// tens of ms of serialization/interleaving delay).
	BaseDelay time.Duration
}

// DefaultAccessProfile returns 2001-era characteristics for the class.
// Typical 56k modems streamed up to ~50 Kbps; DSL/Cable up to ~500 Kbps
// (paper, Section V.A); T1/LAN above that but shared with corporate traffic.
func DefaultAccessProfile(class AccessClass) AccessProfile {
	switch class {
	case AccessModem:
		return AccessProfile{DownKbps: 50, UpKbps: 33, QueueDelayMax: 1200 * time.Millisecond, BaseDelay: 90 * time.Millisecond}
	case AccessDSLCable:
		return AccessProfile{DownKbps: 512, UpKbps: 128, QueueDelayMax: 450 * time.Millisecond, BaseDelay: 12 * time.Millisecond}
	case AccessT1LAN:
		return AccessProfile{DownKbps: 1544, UpKbps: 1544, QueueDelayMax: 250 * time.Millisecond, BaseDelay: 3 * time.Millisecond}
	case AccessServer:
		return AccessProfile{DownKbps: 10000, UpKbps: 10000, QueueDelayMax: 150 * time.Millisecond, BaseDelay: 2 * time.Millisecond}
	default:
		return AccessProfile{DownKbps: 512, UpKbps: 512, QueueDelayMax: 300 * time.Millisecond, BaseDelay: 10 * time.Millisecond}
	}
}

// Route describes the wide-area segment between two sites, independent of
// either end's access link.
type Route struct {
	// OneWayDelay is the base propagation delay in one direction.
	OneWayDelay time.Duration
	// Jitter is the maximum extra random per-packet delay on the route.
	Jitter time.Duration
	// LossRate is the route's random (non-congestion) packet loss
	// probability in [0, 1].
	LossRate float64
	// CapacityKbps is the route's share available to one flow before
	// cross-traffic is applied. Zero means "not the bottleneck".
	CapacityKbps float64
	// CongestionMean and CongestionVar parameterize the AR(1) cross-traffic
	// level in [0, 1): the fraction of bottleneck capacity consumed by
	// background traffic, resampled about once a second.
	CongestionMean float64
	CongestionVar  float64
}

// RouteTable resolves the wide-area route between two hosts (by host name).
// geo implements this from the study's region matrix.
type RouteTable interface {
	Route(fromHost, toHost string) Route
}

// StaticRoute is a RouteTable returning the same Route for every pair;
// convenient in unit tests.
type StaticRoute Route

// Route implements RouteTable.
func (s StaticRoute) Route(from, to string) Route { return Route(s) }

// HostConfig describes one attached host.
type HostConfig struct {
	Name   string
	Access AccessProfile
}

type host struct {
	cfg      HostConfig
	id       HostID
	handlers map[Addr]Handler
	// ports mirrors handlers for every registered addr with a numeric port:
	// the per-delivery fast path.
	ports portTable
	// Precomputed access-link rates in bits/sec — kbpsToBitsPerSec of the
	// fixed config, hoisted out of the per-send path. The config never
	// changes while a host is attached, and the conversion is a pure
	// function, so the hoisted value is bit-identical to the inline call.
	upBps, downBps float64
	// Fluid drop-tail queues: the virtual time until which each direction of
	// the access link is busy serving earlier packets.
	upBusyUntil   time.Duration
	downBusyUntil time.Duration
}

// portTable finds a host's handler by numeric port in one slice index. A
// port at or above EphemeralPorts is at dense[p - base], base being the
// lowest such port registered, so the slice spans only the host's own range
// (a client's handful of ports, a server's accepted conns). A port below it
// — a server's service ports, thousands of numbers apart — is at
// low[p & (len(low)-1)], in a slot that names its port, so a packet to an
// unregistered port finds nothing. Addresses without a parseable port, or
// beyond maxPortSpan, live only in the handler map.
type portTable struct {
	base  int32
	dense []Handler
	low   []lowPort
}

// lowPort is a service port's slot in a low table: the port and its
// handler, or the zero slot.
type lowPort struct {
	port int32
	fn   Handler
}

// EphemeralPorts is where the dense port range starts: a transport hands
// out its conns' ports from here up, and the service ports below it are few
// and far apart.
const EphemeralPorts = 10000

// lowMin is a low table's first size, the one a server's service ports
// (554, 5540 and 6970: 554 and 6970 share their last four bits) first fit.
const lowMin = 32

// maxPortSpan bounds the dense port table per host: a pathological address
// span (huge port numbers) falls back to the handler map rather than
// allocating an enormous slice.
const maxPortSpan = 1 << 16

// get returns the handler registered on port p > 0, or nil.
func (t *portTable) get(p int32) Handler {
	if p >= EphemeralPorts {
		if idx := uint(p - t.base); idx < uint(len(t.dense)) {
			return t.dense[idx]
		}
		return nil
	}
	if n := len(t.low); n > 0 {
		if s := t.low[int(p)&(n-1)]; s.port == p {
			return s.fn
		}
	}
	return nil
}

// set mirrors a registration on port p > 0.
func (t *portTable) set(p int32, fn Handler) {
	if p < EphemeralPorts {
		t.setLow(p, fn)
		return
	}
	if len(t.dense) == 0 {
		t.base = p
	}
	if p < t.base {
		off := int(t.base - p)
		if off+len(t.dense) > maxPortSpan {
			return
		}
		grown := make([]Handler, off+len(t.dense))
		copy(grown[off:], t.dense)
		t.dense = grown
		t.base = p
	}
	idx := int(p - t.base)
	if idx >= maxPortSpan {
		return
	}
	if idx >= len(t.dense) {
		// Slots past the length are nil: nothing writes there, and reset
		// clears the whole table before it is reused.
		t.dense = growTo(t.dense, idx)
	}
	t.dense[idx] = fn
}

// setLow files a port below EphemeralPorts in the low table, doubling the
// table until the port has a slot of its own. Ports in distinct slots stay
// in distinct slots at every larger size, so a doubling moves each one
// once.
func (t *portTable) setLow(p int32, fn Handler) {
	for {
		if len(t.low) == 0 {
			t.low = make([]lowPort, lowMin)
		}
		if s := &t.low[int(p)&(len(t.low)-1)]; s.fn == nil || s.port == p {
			*s = lowPort{p, fn}
			return
		}
		grown := make([]lowPort, 2*len(t.low))
		for _, s := range t.low {
			if s.fn != nil {
				grown[int(s.port)&(len(grown)-1)] = s
			}
		}
		t.low = grown
	}
}

// clear removes the registration on port p > 0.
func (t *portTable) clear(p int32) {
	if p < EphemeralPorts {
		if n := len(t.low); n > 0 && t.low[int(p)&(n-1)].port == p {
			t.low[int(p)&(n-1)] = lowPort{}
		}
		return
	}
	if idx := uint(p - t.base); idx < uint(len(t.dense)) {
		t.dense[idx] = nil
	}
}

// reset empties the table, keeping its storage for the next host.
func (t *portTable) reset() {
	clear(t.dense)
	clear(t.low)
	t.dense, t.base = t.dense[:0], 0
}

// growTo extends s to hold index idx ≥ len(s): in one step to that slot, not
// a doubling per step from one slot, and beyond it as append would grow — a
// small slice doubles, a large one by a quarter — so a run of rising indexes
// does not copy it each time. Slots between the old length and idx are
// whatever the capacity held, which is zero for a slice that never shrinks.
func growTo[T any](s []T, idx int) []T {
	if idx >= cap(s) {
		c := cap(s)
		if c < 256 {
			c *= 2
		} else {
			c += c / 4
		}
		grown := make([]T, idx+1, max(idx+1, c))
		copy(grown, s)
		return grown
	}
	return s[:idx+1]
}

// pathState carries the per-ordered-pair wide-area state.
type pathState struct {
	route     Route
	busyUntil time.Duration // fluid queue at the route bottleneck
	// capBps is kbpsToBitsPerSec(route.CapacityKbps), hoisted at path
	// creation: route capacity never changes afterwards (the dynamics layer
	// scales eff.capFactor instead, and SetCongestionMean touches only the
	// congestion moments), and the conversion is pure, so the precomputed
	// value is bit-identical to the inline call it replaces.
	capBps       float64
	congestion   float64 // current cross-traffic level in [0,1)
	lastResample time.Duration

	// Dynamics-layer state (dynamics.go): which schedule events match this
	// path, resolved lazily, plus per-event Gilbert–Elliott chain state.
	dynMatched bool
	dynEvents  []int
	ge         []geState

	// rng is the path's private draw stream, used instead of the network's
	// global rng in sharded mode: path draws are consumed in the source
	// host's local event order, which is the same for every shard count, so
	// loss/jitter/congestion outcomes cannot depend on the partition. The
	// zero Rand, with no generator, on the classic path. A state recycled
	// through pathFree keeps its generator, and pathRand re-seeds it rather
	// than building a 4.9 KB source: Seed leaves it in the state a fresh
	// source would start in.
	rng    rand.Rand
	seeded bool // rng has been seeded for the pair the state now serves
}

// rowSlots is a short row's storage, carved a chunk at a time: a client row
// reaches only the servers, which a world interns before its users, so most
// rows never outgrow it.
type rowSlots [16]*pathState

// Network simulates packet delivery between hosts. Not safe for concurrent
// use: it shares the single-threaded simclock discipline.
type Network struct {
	Clock *simclock.Clock
	rng   *rand.Rand
	// drng is rng's draw-counting wrapper (rng aliases drng.Rand): the
	// checkpoint layer reads the stream position from it and restores by
	// replaying the count. The indirection keeps every hot path on the
	// plain *rand.Rand.
	drng   *detrand.Rand
	routes RouteTable

	ids     map[string]HostID // permanent name -> ID interning (1-based)
	hostTab []*host           // indexed by HostID; entry nil when detached
	names   []string          // indexed by HostID; interned name

	// Path state, one row per source host: rows[from][to], nil for a pair
	// that has carried no traffic. The outer slice grows with the interned
	// names (one entry each, like hostTab); a row grows to the highest
	// destination ID its source has sent to, and only Send from that source
	// — so, in a sharded world, only the source's shard — writes it.
	rows [][]*pathState

	free     []*Packet               // packet free-list
	cells    lease.Carver[Packet]    // carves what free cannot supply, a chunk at a time
	hostFree []*host                 // detached host objects recycled by AddHost
	pathFree []*pathState            // purged path states recycled by path
	paths    lease.Carver[pathState] // carves what pathFree cannot supply
	rowCells lease.Carver[rowSlots]  // carves the storage of short rows
	transit  TransitPool             // shard-transit payload free-lists (transit.go)

	dyn *dynState // nil unless SetDynamics installed a schedule
	// dynScratch backs dynApply's pointer return; single-threaded per
	// network (per shard), so one slot suffices.
	dynScratch dynEffect

	// Sharded execution (fabric.go). fab is nil on the classic path. When a
	// Network belongs to a Fabric it shares the frozen interning tables and
	// the path rows with its sibling shards — every entry of those tables is
	// touched by exactly one shard, the one that owns the (source) host — and
	// owns its clock, packet pool and draw streams privately.
	fab      *Fabric
	shardIdx int
	frozen   bool  // interning closed: Intern of an unknown name panics
	pathSeed int64 // base seed for the per-path draw streams

	// Stats
	sent, delivered, dropped uint64
}

// New creates a Network on the given clock. routes may be nil, in which case
// a zero Route (LAN-like: no delay, no loss, unconstrained) is used
// everywhere.
func New(clock *simclock.Clock, routes RouteTable, seed int64) *Network {
	if routes == nil {
		routes = StaticRoute{}
	}
	drng := detrand.New(seed)
	return &Network{
		Clock:   clock,
		rng:     drng.Rand,
		drng:    drng,
		routes:  routes,
		ids:     make(map[string]HostID),
		hostTab: make([]*host, 1), // index 0 = HostID zero, unused
		names:   make([]string, 1),
		rows:    make([][]*pathState, 1),
	}
}

// Reserve sizes the host tables for hosts more names, so a world that
// knows its host count up front interns them without growing the tables.
func (n *Network) Reserve(hosts int) {
	if len(n.ids) == 0 {
		n.ids = make(map[string]HostID, hosts)
	}
	n.hostTab = slices.Grow(n.hostTab, hosts)
	n.names = slices.Grow(n.names, hosts)
	n.rows = slices.Grow(n.rows, hosts)
}

// Intern returns the permanent dense ID for a host name, assigning one if
// the name has never been seen. Interning does not attach a host; it lets
// the transport layer resolve endpoints once per connection instead of once
// per packet. IDs are never reused for a different name.
func (n *Network) Intern(name string) HostID {
	if id, ok := n.ids[name]; ok {
		return id
	}
	if n.frozen {
		// A frozen (sharded) network shares its interning tables across
		// shards; growing them at runtime would race. Every host of a
		// sharded world is interned at build time, so reaching this is a
		// bug, not a capacity limit.
		panic("netsim: Intern of unknown host " + name + " after freeze")
	}
	id := HostID(len(n.hostTab))
	n.ids[name] = id
	n.hostTab = append(n.hostTab, nil)
	n.names = append(n.names, name)
	n.rows = append(n.rows, nil)
	return id
}

// HostIDOf returns the interned ID for name, or zero when the name has never
// been interned.
func (n *Network) HostIDOf(name string) HostID { return n.ids[name] }

// AddHost attaches a host. Adding the same name twice panics: host identity
// is load-bearing for path state.
func (n *Network) AddHost(cfg HostConfig) {
	id := n.Intern(cfg.Name)
	if n.hostTab[id] != nil {
		panic("netsim: duplicate host " + cfg.Name)
	}
	var h *host
	if k := len(n.hostFree); k > 0 {
		h = n.hostFree[k-1]
		n.hostFree = n.hostFree[:k-1]
		*h = host{handlers: h.handlers, ports: h.ports}
	} else {
		h = &host{handlers: make(map[Addr]Handler)}
	}
	h.cfg, h.id = cfg, id
	h.upBps = kbpsToBitsPerSec(cfg.Access.UpKbps)
	h.downBps = kbpsToBitsPerSec(cfg.Access.DownKbps)
	n.hostTab[id] = h
}

// RemoveHost detaches a host and all its handlers, and purges every piece of
// per-path state touching it — both directions — so a host re-added under
// the same name starts with fresh congestion and queue state instead of
// silently inheriting the dead host's. A purged path's state object goes to
// the free-list path draws from. Unknown names are a no-op.
func (n *Network) RemoveHost(name string) {
	id, ok := n.ids[name]
	if !ok || n.hostTab[id] == nil {
		return
	}
	h := n.hostTab[id]
	n.hostTab[id] = nil
	clear(h.handlers)
	h.ports.reset()
	n.hostFree = append(n.hostFree, h)
	row := n.rows[id]
	for to := range row {
		n.purgePath(row, to)
	}
	// The column holds paths whose *source* is some other host. In sharded
	// mode those entries belong to the source hosts' shards and purging them
	// here would race; wide-area path state instead survives host churn
	// uniformly across every shard count. The classic path keeps the full
	// both-direction purge.
	if n.fab == nil {
		for _, row := range n.rows {
			if int(id) < len(row) {
				n.purgePath(row, int(id))
			}
		}
	}
}

// purgePath empties row[to], recycling the state it held.
func (n *Network) purgePath(row []*pathState, to int) {
	if p := row[to]; p != nil {
		row[to] = nil
		n.pathFree = append(n.pathFree, p)
	}
}

// hostByAddr resolves an Addr to its attached host, or nil.
func (n *Network) hostByAddr(a Addr) *host {
	return n.lookup(n.ids[a.Host()])
}

// Register installs the packet handler for addr. The host component of addr
// must have been added with AddHost.
func (n *Network) Register(addr Addr, h Handler) {
	hst := n.hostByAddr(addr)
	if hst == nil {
		panic("netsim: Register on unknown host " + addr.Host())
	}
	hst.handlers[addr] = h
	if p := addr.Port(); p > 0 {
		hst.ports.set(p, h)
	}
}

// Unregister removes the handler for addr.
func (n *Network) Unregister(addr Addr) {
	if hst := n.hostByAddr(addr); hst != nil {
		delete(hst.handlers, addr)
		if p := addr.Port(); p > 0 {
			hst.ports.clear(p)
		}
	}
}

// Registered reports whether addr has a packet handler: its host is attached
// and nothing has unregistered the address — or removed the host — since.
func (n *Network) Registered(addr Addr) bool {
	hst := n.hostByAddr(addr)
	return hst != nil && hst.handlers[addr] != nil
}

// Stats reports cumulative packet counts: sent (offered to the network),
// delivered and dropped (loss or queue overflow).
func (n *Network) Stats() (sent, delivered, dropped uint64) {
	return n.sent, n.delivered, n.dropped
}

// Obtain returns a Packet from the free-list (or a carved one). The caller
// fills it and hands it to Send, which releases it back to the pool on
// delivery or drop — the steady-state per-packet path allocates nothing.
func (n *Network) Obtain() *Packet {
	if k := len(n.free); k > 0 {
		p := n.free[k-1]
		n.free = n.free[:k-1]
		return p
	}
	return n.cells.New()
}

// release returns a packet to the free-list.
func (n *Network) release(pkt *Packet) {
	pkt.From, pkt.To = "", ""
	pkt.FromID, pkt.ToID = 0, 0
	pkt.FromPort, pkt.ToPort = 0, 0
	pkt.Size = 0
	pkt.Payload = nil
	pkt.net = nil
	pkt.edge = false
	n.free = append(n.free, pkt)
}

// path returns (creating if needed) the ordered-pair path state, growing
// the source's row to reach the destination. A state RemoveHost purged is
// reused, overwritten whole with what a new one starts as — all but its
// draw stream's generator, which pathRand re-seeds.
func (n *Network) path(from, to HostID) *pathState {
	row := n.rows[from]
	if int(to) >= len(row) {
		if row == nil && int(to) < len(rowSlots{}) {
			row = n.rowCells.New()[:0]
		}
		row = growTo(row, int(to))
		n.rows[from] = row
	}
	p := row[to]
	if p == nil {
		var rng rand.Rand
		if k := len(n.pathFree) - 1; k >= 0 {
			p, n.pathFree = n.pathFree[k], n.pathFree[:k]
			rng = p.rng
		} else {
			p = n.paths.New()
		}
		r := n.routes.Route(n.names[from], n.names[to])
		*p = pathState{route: r, capBps: kbpsToBitsPerSec(r.CapacityKbps), congestion: clamp01(r.CongestionMean), rng: rng}
		row[to] = p
	}
	return p
}

// routeByName resolves the wide-area route between two host names without
// creating or mutating any state: never-interned names get the zero Route
// (a name the network has not seen has no route worth reporting), known
// names resolve through the route table. Inspection must not intern its
// arguments: an interned name is permanent, and every table indexed by
// HostID would grow by one entry per typo'd probe.
func (n *Network) routeByName(from, to string) Route {
	if n.HostIDOf(from) == 0 || n.HostIDOf(to) == 0 {
		return Route{}
	}
	return n.routes.Route(from, to)
}

// forEachPath visits every existing pathState in (from, to) order.
func (n *Network) forEachPath(fn func(from, to HostID, p *pathState)) {
	for from, row := range n.rows {
		for to, p := range row {
			if p != nil {
				fn(HostID(from), HostID(to), p)
			}
		}
	}
}

const congestionResample = time.Second

// resampleCongestion advances the AR(1) cross-traffic process to now,
// drawing innovations from rng (the global stream on the classic path, the
// path-private stream in sharded mode).
func (n *Network) resampleCongestion(p *pathState, rng *rand.Rand) {
	// Inlinable guard: between resample boundaries (the per-packet common
	// case) the caller pays one comparison, not a call into the loop.
	if p.lastResample+congestionResample > n.Clock.Now() {
		return
	}
	n.resampleCongestionDue(p, rng)
}

func (n *Network) resampleCongestionDue(p *pathState, rng *rand.Rand) {
	now := n.Clock.Now()
	for p.lastResample+congestionResample <= now {
		p.lastResample += congestionResample
		mean, sd := p.route.CongestionMean, p.route.CongestionVar
		// AR(1) pull toward the mean with Gaussian innovation.
		p.congestion = clamp01(p.congestion + 0.35*(mean-p.congestion) + rng.NormFloat64()*sd)
	}
}

// pathRand returns the draw stream for a path in sharded mode, seeding it
// on first use. The seed mixes the frozen endpoint IDs, which are identical
// for every shard count (interning order is fixed at build), and draws are
// consumed in the source host's local event order — also partition-
// invariant — so the stream's outcomes cannot depend on how hosts were
// split across shards.
func (n *Network) pathRand(p *pathState, from, to HostID) *rand.Rand {
	if !p.seeded {
		n.seedPath(p, from, to)
	}
	return &p.rng
}

// seedPath starts p's draw stream for the pair (from, to), on the generator
// a recycled state kept or on a new one.
func (n *Network) seedPath(p *pathState, from, to HostID) {
	seed := n.pathSeed ^ (int64(from)<<20 | int64(to))
	if p.rng == (rand.Rand{}) {
		p.rng = detrand.Plain(seed)
	} else {
		p.rng.Seed(seed)
	}
	p.seeded = true
}

// streams picks the two draw streams a packet on path p consumes: path draws
// (congestion innovations, route loss, jitter) and dynamics draws
// (Gilbert–Elliott transitions, dynamics loss). The classic engine takes
// them from two network-wide generators, the global RNG and the installed
// schedule's dedicated one (nil without a schedule, when nothing draws from
// it). A sharded world takes both from the path's private stream. The two
// engines' rules meet here and nowhere else.
func (n *Network) streams(p *pathState, from, to HostID) (pathRng, dynRng *rand.Rand) {
	if n.fab != nil {
		rng := n.pathRand(p, from, to)
		return rng, rng
	}
	if n.dyn != nil {
		return n.rng, n.dyn.rng
	}
	return n.rng, nil
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 0.95 {
		return 0.95
	}
	return x
}

// uplink is the first link stage, the source access link: a fluid drop-tail
// queue. It takes a packet of the given size offered at now and returns when
// the packet has cleared the link, or false when the queue is full.
func (h *host) uplink(now time.Duration, bits float64) (time.Duration, bool) {
	start := maxDur(now, h.upBusyUntil)
	if start-now > h.cfg.Access.QueueDelayMax {
		return 0, false
	}
	h.upBusyUntil = start + durationFromSeconds(bits/h.upBps)
	return h.upBusyUntil + h.cfg.Access.BaseDelay, true
}

// routeQueueMax is the bottleneck buffer: route buffers are generous, and
// overflow is expressed as time at line rate.
const routeQueueMax = 2 * time.Second

// wan is the second link stage, the wide-area route, for a packet that
// cleared the uplink at t: random loss, dynamics loss, bottleneck service (if
// the route constrains capacity), propagation and jitter, in that draw
// order. eff is the folded dynamics effect, nil when no schedule is
// installed: every eff-guarded branch then reduces to the identity (a 1.0
// capacity factor multiplies exactly, a zero delay adds exactly, so the nil
// path is float-for-float the same as an inert effect struct). It returns
// the packet's arrival at the far edge of the wide area, or false when the
// packet is lost or the bottleneck queue is full.
func (p *pathState) wan(eff *dynEffect, rng, dynRng *rand.Rand, t time.Duration, bits float64) (time.Duration, bool) {
	r := &p.route
	if r.LossRate > 0 && rng.Float64() < r.LossRate {
		return 0, false
	}
	if eff != nil && eff.lossExtra > 0 && dynRng.Float64() < eff.lossExtra {
		return 0, false
	}
	if r.CapacityKbps > 0 {
		cong := p.congestion
		capFactor := 1.0
		if eff != nil {
			cong = clamp01(cong + eff.congAdd)
			capFactor = eff.capFactor
		}
		avail := p.capBps * capFactor * (1 - cong)
		if avail < 1 {
			avail = 1 // a ramped-to-zero bottleneck is a dead link
		}
		s := maxDur(t, p.busyUntil)
		if s-t > routeQueueMax {
			return 0, false
		}
		p.busyUntil = s + durationFromSeconds(bits/avail)
		t = p.busyUntil
	}
	t += r.OneWayDelay
	if eff != nil {
		t += eff.delayAdd
	}
	if r.Jitter > 0 {
		t += time.Duration(rng.Float64() * float64(r.Jitter))
	}
	return t, true
}

// downlink is the third link stage, the destination access link — where
// modems actually hurt — for a packet that reaches it at t. It returns the
// delivery time, or false when the queue is full. Whoever owns the
// destination host calls it: Send on the classic engine, deliver at the
// WAN-edge arrival in a sharded world.
func (h *host) downlink(t time.Duration, bits float64) (time.Duration, bool) {
	arrive := maxDur(t, h.downBusyUntil)
	if arrive-t > h.cfg.Access.QueueDelayMax {
		return 0, false
	}
	h.downBusyUntil = arrive + durationFromSeconds(bits/h.downBps)
	return h.downBusyUntil + h.cfg.Access.BaseDelay, true
}

// drop is the one exit for a packet the network will not deliver, whatever
// the cause and whichever stage found it, and it ends the packet's lease on
// its payload: the caller's original when the drop is inside Send — which is
// why a sender that reads a payload after Send holds its own reference first
// — or the snapshot forward took at the WAN edge.
func (n *Network) drop(pkt *Packet) {
	n.dropped++
	ReleaseTransit(&n.transit, pkt.Payload)
	n.release(pkt)
}

// Send offers pkt to the network. Delivery (or silent drop) is scheduled on
// the clock; the call itself does not advance time. pkt comes from Obtain
// with both ends resolved (see Packet); sending from or to a host that is
// not attached drops it. Send consumes the packet, and the payload with it:
// after the call the caller must not touch pkt again, nor a payload it holds
// no reference of its own on — every Send ends in exactly one release of the
// payload it was handed (transit.go).
//
// The draw order — congestion resample, dynamics chains, route loss,
// dynamics loss, jitter — is part of the byte-identity contract.
func (n *Network) Send(pkt *Packet) {
	n.sent++
	src := n.lookup(pkt.FromID)
	if src == nil {
		n.drop(pkt)
		return
	}
	// The classic engine resolves the destination at send time and prices
	// its downlink below. In a sharded world the destination may belong to
	// another shard, and only that shard may touch it: dst stays nil and
	// the packet is forwarded at its WAN-edge arrival instead.
	var dst *host
	if n.fab == nil {
		if dst = n.lookup(pkt.ToID); dst == nil {
			n.drop(pkt)
			return
		}
	}
	p := n.path(pkt.FromID, pkt.ToID)
	rng, dynRng := n.streams(p, pkt.FromID, pkt.ToID)
	n.resampleCongestion(p, rng)
	// The dynamics layer (dynamics.go) folds every active scheduled event —
	// outages, ramps, traffic profiles, loss bursts, delay shifts — into one
	// effect; nil, and draw-free, with no schedule installed. The endpoints
	// go by ID: every interned ID resolves through the frozen name table on
	// every shard, wherever the host lives.
	eff := n.dynApply(p, pkt.FromID, pkt.ToID, dynRng)
	if eff != nil && eff.drop {
		n.drop(pkt)
		return
	}
	bits := float64(pkt.Size) * 8
	t, ok := src.uplink(n.Clock.Now(), bits)
	if ok {
		t, ok = p.wan(eff, rng, dynRng, t, bits)
	}
	if ok && dst != nil {
		t, ok = dst.downlink(t, bits)
	}
	switch {
	case !ok:
		n.drop(pkt)
	case dst == nil:
		n.forward(t, pkt)
	default:
		pkt.net = n
		n.Clock.AtHandler(t, pkt)
	}
}

// lookup returns the attached host for id, or nil.
func (n *Network) lookup(id HostID) *host {
	if id <= 0 || int(id) >= len(n.hostTab) {
		return nil
	}
	return n.hostTab[id]
}

// deliver hands an arrived packet to its destination handler. The host is
// re-resolved at delivery time — it may have detached (or been replaced
// under the same name) while the packet was in flight.
func (n *Network) deliver(pkt *Packet) {
	hst := n.lookup(pkt.ToID)
	if hst == nil {
		n.drop(pkt)
		return
	}
	if pkt.edge {
		// The packet has just crossed the wide area and n is the shard that
		// owns the destination. Run the downlink now — destination-local
		// queue order is this shard's event order, identical for every
		// partition — and reschedule the final delivery.
		pkt.edge = false
		at, ok := hst.downlink(n.Clock.Now(), float64(pkt.Size)*8)
		if !ok {
			n.drop(pkt)
			return
		}
		n.Clock.AtHandler(at, pkt)
		return
	}
	// Fast path: senders pre-parse their ports, so the dense per-host tables
	// resolve the handler without hashing the address string. A zero or
	// out-of-span port (portless addresses, ports past the table) falls
	// back to the map.
	var h Handler
	if p := pkt.ToPort; p > 0 {
		h = hst.ports.get(p)
	}
	if h == nil {
		if h = hst.handlers[pkt.To]; h == nil {
			n.drop(pkt)
			return
		}
	}
	n.delivered++
	h(pkt)
	n.release(pkt)
}

// Attached reports whether a host by that name is currently attached.
// Interned-but-removed names report false.
func (n *Network) Attached(name string) bool {
	return n.lookup(n.ids[name]) != nil
}

// BaseRTT returns the static round-trip estimate between two hosts: both
// ends' access base delays plus the route's propagation delay in each
// direction. It ignores queueing, jitter and cross-traffic, draws no
// randomness and mutates nothing — not the host table, not the path rows —
// so server-selection probes cannot perturb a run and cannot grow the
// world. Never-interned names contribute the zero Route. In sharded mode
// this read-only discipline is also what makes cross-shard selection
// probes safe.
func (n *Network) BaseRTT(from, to string) time.Duration {
	a, b := n.lookup(n.HostIDOf(from)), n.lookup(n.HostIDOf(to))
	rtt := n.routeByName(from, to).OneWayDelay + n.routeByName(to, from).OneWayDelay
	if a != nil {
		rtt += 2 * a.cfg.Access.BaseDelay
	}
	if b != nil {
		rtt += 2 * b.cfg.Access.BaseDelay
	}
	return rtt
}

// SetCongestionMean overrides the cross-traffic mean for the ordered pair,
// taking effect from the current virtual time. Used by the congestion and
// adaptation examples to create a mid-clip congestion epoch. Unlike the
// inspection APIs this is a deliberate mutator: it interns its arguments
// and creates path state, because the override must persist.
func (n *Network) SetCongestionMean(from, to string, mean, variance float64) {
	p := n.path(n.Intern(from), n.Intern(to))
	p.route.CongestionMean = mean
	p.route.CongestionVar = variance
}

func kbpsToBitsPerSec(kbps float64) float64 {
	if kbps <= 0 {
		return 1 // avoid division by zero; effectively a dead link
	}
	return kbps * 1000
}

func durationFromSeconds(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
