package netsim

import (
	"math"
	"math/rand"
	"time"

	"realtracer/internal/detrand"
)

// This file implements the network-dynamics layer: a Dynamics schedule of
// composable, simclock-driven events that turn the static simulated
// Internet into a time-varying one — link outages and degradation windows,
// bottleneck capacity ramps, diurnal and flash-crowd cross-traffic
// profiles, Gilbert–Elliott loss-burst episodes, and mid-session
// route-delay shifts. Events target named paths or hosts ("*" and
// "*suffix" patterns match groups), and everything random inside the layer
// draws from a dedicated RNG seeded via SetDynamics, so a schedule replays
// identically run after run. A Network with no dynamics installed behaves
// bit-for-bit as before: the layer makes zero RNG draws when absent.

// EventKind discriminates dynamics event types.
type EventKind int

const (
	// EventOutage drops every packet on matching paths during the window
	// (LossRate >= 1), or raises loss by LossRate for a partial degradation.
	EventOutage EventKind = iota
	// EventCapacityRamp scales the route bottleneck capacity: the factor
	// interpolates linearly from 1 at Start to CapacityFactor at the window
	// end and holds there afterwards (a completed ramp persists, modelling a
	// provisioning change or a lasting shift in competing load).
	EventCapacityRamp
	// EventDiurnal modulates cross-traffic sinusoidally: congestion gains
	// Amplitude * sin^2(pi * t / Period), the day/night load cycle.
	EventDiurnal
	// EventFlashCrowd spikes cross-traffic around Peak: congestion rises
	// linearly over RampUp to Amplitude, then decays exponentially with time
	// constant Decay — the slashdot shape.
	EventFlashCrowd
	// EventLossBurst runs a Gilbert–Elliott two-state chain on matching
	// paths during the window: each second the path enters the bad state
	// with probability PEnter and leaves it with probability PExit; while
	// bad, packets suffer BadLoss extra loss probability.
	EventLossBurst
	// EventDelayShift adds DelayDelta to the route's one-way delay from
	// Start (for Duration, or permanently when Duration <= 0) — a route
	// flap onto a longer path.
	EventDelayShift
)

// DynEvent is one scheduled dynamics event. From and To select the ordered
// paths it applies to: "" or "*" match any host, "*suffix" matches hosts
// with that suffix, anything else matches exactly. Start/Duration bound the
// active window in virtual time; Duration <= 0 means open-ended for kinds
// where that is meaningful (diurnal profiles, delay shifts, completed
// ramps).
type DynEvent struct {
	Kind     EventKind
	From, To string
	Start    time.Duration
	Duration time.Duration

	// LossRate: EventOutage loss probability (>= 1 drops everything).
	LossRate float64
	// CapacityFactor: EventCapacityRamp target multiplier.
	CapacityFactor float64
	// Amplitude: EventDiurnal / EventFlashCrowd congestion addition at peak.
	Amplitude float64
	// Period: EventDiurnal cycle length.
	Period time.Duration
	// RampUp, Decay: EventFlashCrowd rise time and decay constant. The spike
	// peaks at Start+RampUp.
	RampUp, Decay time.Duration
	// PEnter, PExit, BadLoss: EventLossBurst chain parameters (per-second
	// transition probabilities; extra loss while in the bad state).
	PEnter, PExit, BadLoss float64
	// DelayDelta: EventDelayShift one-way delay addition.
	DelayDelta time.Duration
}

// active reports whether the event influences time t at all.
func (e *DynEvent) active(t time.Duration) bool {
	switch e.Kind {
	case EventCapacityRamp:
		// A completed ramp persists past its window: the window bounds the
		// transition, not the new capacity.
		return t >= e.Start
	case EventFlashCrowd:
		return t >= e.Start
	default:
		if t < e.Start {
			return false
		}
		return e.Duration <= 0 || t < e.Start+e.Duration
	}
}

// Dynamics is a schedule of events. Build one with the fluent helpers and
// install it on a Network with SetDynamics before traffic flows.
type Dynamics struct {
	Events []DynEvent
}

// NewDynamics returns an empty schedule.
func NewDynamics() *Dynamics { return &Dynamics{} }

// add appends and returns the schedule for chaining.
func (d *Dynamics) add(e DynEvent) *Dynamics {
	d.Events = append(d.Events, e)
	return d
}

// Outage drops every packet on paths matching from->to during the window.
func (d *Dynamics) Outage(from, to string, start, dur time.Duration) *Dynamics {
	return d.add(DynEvent{Kind: EventOutage, From: from, To: to, Start: start, Duration: dur, LossRate: 1})
}

// Degrade raises loss on matching paths by lossRate during the window.
func (d *Dynamics) Degrade(from, to string, start, dur time.Duration, lossRate float64) *Dynamics {
	return d.add(DynEvent{Kind: EventOutage, From: from, To: to, Start: start, Duration: dur, LossRate: lossRate})
}

// CapacityRamp ramps the bottleneck capacity multiplier from 1 to factor
// across the window; the factor holds after the ramp completes.
func (d *Dynamics) CapacityRamp(from, to string, start, dur time.Duration, factor float64) *Dynamics {
	return d.add(DynEvent{Kind: EventCapacityRamp, From: from, To: to, Start: start, Duration: dur, CapacityFactor: factor})
}

// Diurnal modulates cross-traffic with a sin^2 cycle of the given period
// and peak amplitude, from start for dur (dur <= 0: forever).
func (d *Dynamics) Diurnal(from, to string, start, dur, period time.Duration, amplitude float64) *Dynamics {
	return d.add(DynEvent{Kind: EventDiurnal, From: from, To: to, Start: start, Duration: dur, Period: period, Amplitude: amplitude})
}

// FlashCrowd schedules a congestion spike: rising over rampUp from start,
// peaking at amplitude, decaying with time constant decay.
func (d *Dynamics) FlashCrowd(from, to string, start, rampUp, decay time.Duration, amplitude float64) *Dynamics {
	return d.add(DynEvent{Kind: EventFlashCrowd, From: from, To: to, Start: start, RampUp: rampUp, Decay: decay, Amplitude: amplitude})
}

// LossBurst runs a Gilbert–Elliott episode on matching paths during the
// window: per-second transitions good->bad with pEnter, bad->good with
// pExit, and badLoss extra loss probability while bad.
func (d *Dynamics) LossBurst(from, to string, start, dur time.Duration, pEnter, pExit, badLoss float64) *Dynamics {
	return d.add(DynEvent{Kind: EventLossBurst, From: from, To: to, Start: start, Duration: dur,
		PEnter: pEnter, PExit: pExit, BadLoss: badLoss})
}

// DelayShift adds delta one-way delay to matching paths from start (for
// dur, or permanently when dur <= 0).
func (d *Dynamics) DelayShift(from, to string, start, dur time.Duration, delta time.Duration) *Dynamics {
	return d.add(DynEvent{Kind: EventDelayShift, From: from, To: to, Start: start, Duration: dur, DelayDelta: delta})
}

// Compiled pattern kinds. Pattern semantics: "" and "*" match everything,
// "*suffix" matches by suffix, anything else matches one host name exactly.
const (
	patAny uint8 = iota
	patExact
	patSuffix
	patNone // exact name unknown to a frozen world: matches nothing
)

// compiledPattern is a host pattern resolved at SetDynamics time: exact
// names are interned to a HostID so per-path matching compares integers, and
// wildcards are classified once instead of re-parsed per match.
type compiledPattern struct {
	kind   uint8
	id     HostID // patExact: the interned host ID
	suffix string // patSuffix
}

func (n *Network) compilePattern(pattern string) compiledPattern {
	switch {
	case pattern == "" || pattern == "*":
		return compiledPattern{kind: patAny}
	case len(pattern) > 1 && pattern[0] == '*':
		return compiledPattern{kind: patSuffix, suffix: pattern[1:]}
	default:
		if n.frozen {
			// A frozen (sharded) world's name table is closed: an exact
			// pattern either resolves to an existing ID or names a host
			// that can never exist — compile it to never-match instead of
			// letting Intern panic over the closed table.
			if id, ok := n.ids[pattern]; ok {
				return compiledPattern{kind: patExact, id: id}
			}
			return compiledPattern{kind: patNone}
		}
		return compiledPattern{kind: patExact, id: n.Intern(pattern)}
	}
}

// match tests a compiled pattern against an interned host, identified by
// its frozen ID and name. Matching by ID/name rather than by attached
// *host lets the sharded engine match paths whose destination lives on
// another shard (remote hosts are never attached locally).
func (c *compiledPattern) match(id HostID, name string) bool {
	switch c.kind {
	case patAny:
		return true
	case patExact:
		return c.id == id
	case patNone:
		return false
	default:
		return len(name) >= len(c.suffix) && name[len(name)-len(c.suffix):] == c.suffix
	}
}

// compiledEvent pairs one schedule event with its compiled endpoint
// patterns.
type compiledEvent struct {
	from, to compiledPattern
}

// geState is the Gilbert–Elliott chain state for one (path, event) pair.
type geState struct {
	bad  bool
	last time.Duration // chain advanced through this virtual time
}

// dynState is the per-network dynamics runtime: the installed schedule, its
// per-event compiled patterns, and its private RNG. Chain state lives on
// each pathState so paths evolve independently (but deterministically, since
// the single-threaded clock fixes the draw order).
type dynState struct {
	spec     *Dynamics
	compiled []compiledEvent
	rng      *rand.Rand
	// drng is rng's draw-counting wrapper (rng aliases drng.Rand), read by
	// the checkpoint layer; see Network.drng.
	drng *detrand.Rand
}

// dynEffect is the folded influence of every active event on one packet.
type dynEffect struct {
	drop      bool
	lossExtra float64
	capFactor float64
	congAdd   float64
	delayAdd  time.Duration
}

// SetDynamics installs (or, with a nil or empty spec, removes) a dynamics
// schedule. seed feeds the layer's private RNG, decoupling dynamics
// randomness from the base network's loss/jitter stream: the same world
// with dynamics off is bit-identical to a world that never had the layer.
// Install before traffic flows; installing resets per-path dynamics state.
func (n *Network) SetDynamics(spec *Dynamics, seed int64) {
	if spec == nil || len(spec.Events) == 0 {
		n.dyn = nil
	} else {
		compiled := make([]compiledEvent, len(spec.Events))
		for i := range spec.Events {
			compiled[i] = compiledEvent{
				from: n.compilePattern(spec.Events[i].From),
				to:   n.compilePattern(spec.Events[i].To),
			}
		}
		drng := detrand.New(seed)
		n.dyn = &dynState{spec: spec, compiled: compiled, rng: drng.Rand, drng: drng}
	}
	n.forEachPath(func(_, _ HostID, p *pathState) {
		p.dynEvents = nil
		p.dynMatched = false
		p.ge = nil
	})
}

// dynTick is the Gilbert–Elliott chain advancement cadence.
const dynTick = time.Second

// dynEventsFor lazily resolves which schedule events match the path, using
// the patterns compiled at SetDynamics time (ID comparison for exact names,
// one suffix check per path per event otherwise — never per packet). The
// endpoints are identified by ID: in a sharded world the destination may be
// owned by another shard and have no local *host at all, but the frozen
// name table resolves every interned ID on every shard.
func (n *Network) dynEventsFor(p *pathState, from, to HostID) []int {
	if !p.dynMatched {
		p.dynMatched = true
		fromName, toName := n.names[from], n.names[to]
		for i := range n.dyn.compiled {
			c := &n.dyn.compiled[i]
			if c.from.match(from, fromName) && c.to.match(to, toName) {
				p.dynEvents = append(p.dynEvents, i)
			}
		}
		if len(p.dynEvents) > 0 {
			p.ge = make([]geState, len(p.dynEvents))
		}
	}
	return p.dynEvents
}

// dynApply folds every matching active event into one effect for a packet
// offered on the path at virtual time now. rng is the dynamics draw stream
// Network.streams chose — Gilbert–Elliott transitions draw from it — and may
// be nil when no schedule is installed. dynApply then returns nil — the
// common case and the per-packet hot path, where the caller pays one inlined
// branch instead of a call plus a 40-byte effect copy. A non-nil result
// points at per-network scratch and is valid only until the next dynApply
// call.
func (n *Network) dynApply(p *pathState, from, to HostID, rng *rand.Rand) *dynEffect {
	if n.dyn == nil {
		return nil
	}
	n.dynScratch = n.dynApplyActive(p, from, to, rng)
	return &n.dynScratch
}

// dynApplyActive is the non-inert half of dynApply: at least one dynamics
// event is installed.
func (n *Network) dynApplyActive(p *pathState, from, to HostID, rng *rand.Rand) dynEffect {
	eff := dynEffect{capFactor: 1}
	now := n.Clock.Now()
	for gi, i := range n.dynEventsFor(p, from, to) {
		e := &n.dyn.spec.Events[i]
		if !e.active(now) {
			continue
		}
		t := now - e.Start
		switch e.Kind {
		case EventOutage:
			if e.LossRate >= 1 {
				eff.drop = true
			} else {
				eff.lossExtra = combineLoss(eff.lossExtra, e.LossRate)
			}
		case EventCapacityRamp:
			f := e.CapacityFactor
			if e.Duration > 0 && t < e.Duration {
				frac := float64(t) / float64(e.Duration)
				f = 1 + (e.CapacityFactor-1)*frac
			}
			eff.capFactor *= f
		case EventDiurnal:
			if e.Period > 0 {
				s := math.Sin(math.Pi * float64(t) / float64(e.Period))
				eff.congAdd += e.Amplitude * s * s
			}
		case EventFlashCrowd:
			eff.congAdd += e.Amplitude * flashShape(t, e.RampUp, e.Decay)
		case EventLossBurst:
			advanceGE(&p.ge[gi], e, now, rng)
			if p.ge[gi].bad {
				eff.lossExtra = combineLoss(eff.lossExtra, e.BadLoss)
			}
		case EventDelayShift:
			eff.delayAdd += e.DelayDelta
		}
	}
	return eff
}

// advanceGE walks the Gilbert–Elliott chain forward to now in one-second
// steps, drawing transitions from rng.
func advanceGE(g *geState, e *DynEvent, now time.Duration, rng *rand.Rand) {
	if g.last == 0 && g.last < e.Start {
		g.last = e.Start
	}
	for g.last+dynTick <= now {
		g.last += dynTick
		if g.bad {
			if rng.Float64() < e.PExit {
				g.bad = false
			}
		} else if rng.Float64() < e.PEnter {
			g.bad = true
		}
	}
}

// flashShape is the unit flash-crowd profile: linear rise over rampUp,
// exponential decay afterwards.
func flashShape(t, rampUp, decay time.Duration) float64 {
	if t < 0 {
		return 0
	}
	if rampUp > 0 && t < rampUp {
		return float64(t) / float64(rampUp)
	}
	since := t - rampUp
	if decay <= 0 {
		return 0
	}
	return math.Exp(-float64(since) / float64(decay))
}

// combineLoss composes independent loss probabilities.
func combineLoss(a, b float64) float64 { return 1 - (1-a)*(1-b) }
