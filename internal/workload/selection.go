package workload

import (
	"fmt"
	"sort"
	"time"

	"realtracer/internal/snap"
)

// Candidate is one mirror site offering a requested clip, as seen by a
// selection policy at pick time.
type Candidate struct {
	// Host is the server's simulator host name.
	Host string
	// Home marks the clip's original site — the one the paper-faithful
	// pinned mode would use.
	Home bool
	// RTT is the static round-trip estimate from the client to this
	// server (netsim.BaseRTT: access base delays + propagation, no
	// queueing and no randomness).
	RTT time.Duration
	// Load is the server's current active-session count (the load probe).
	Load int
}

// Policy chooses a mirror for each clip request. Implementations must be
// deterministic: same inputs (and internal state) → same pick, so
// campaign records stay byte-identical across worker counts. A Policy
// instance belongs to one world and is never shared.
type Policy interface {
	Name() string
	// Pick returns the index of the chosen candidate. cands is non-empty
	// and ordered by stable site index; ties must break deterministically.
	Pick(user string, cands []Candidate) int
}

// PinnedName is the paper-faithful policy: every clip is fetched from its
// home site, exactly as the closed-loop study did. It is the default.
const PinnedName = "pinned"

// Pinned picks the clip's home site.
type Pinned struct{}

// Name implements Policy.
func (Pinned) Name() string { return PinnedName }

// Pick implements Policy.
func (Pinned) Pick(user string, cands []Candidate) int {
	for i, c := range cands {
		if c.Home {
			return i
		}
	}
	return 0
}

// NearestRTT picks the candidate with the lowest static RTT estimate,
// breaking ties by site order.
type NearestRTT struct{}

// Name implements Policy.
func (NearestRTT) Name() string { return "rtt" }

// Pick implements Policy.
func (NearestRTT) Pick(user string, cands []Candidate) int {
	best := 0
	for i, c := range cands {
		if c.RTT < cands[best].RTT {
			best = i
		}
	}
	return best
}

// RoundRobin rotates through the mirrors regardless of distance or load —
// the classic DNS-rotation strawman.
type RoundRobin struct{ next int }

// Name implements Policy.
func (*RoundRobin) Name() string { return "roundrobin" }

// Pick implements Policy.
func (p *RoundRobin) Pick(user string, cands []Candidate) int {
	i := p.next % len(cands)
	p.next++
	return i
}

// Sync walks the rotation cursor so a world checkpoint can carry it.
// RoundRobin is the only stateful policy.
func (p *RoundRobin) Sync(c *snap.Codec) {
	c.Int(&p.next)
	if c.Reading() && p.next < 0 {
		c.Fail(fmt.Errorf("workload: snapshot round-robin cursor %d is negative", p.next))
		p.next = 0
	}
}

// LeastLoaded picks the server with the fewest active sessions, breaking
// ties by lower RTT and then site order — the load-probe policy.
type LeastLoaded struct{}

// Name implements Policy.
func (LeastLoaded) Name() string { return "leastloaded" }

// Pick implements Policy.
func (LeastLoaded) Pick(user string, cands []Candidate) int {
	best := 0
	for i, c := range cands {
		b := cands[best]
		if c.Load < b.Load || (c.Load == b.Load && c.RTT < b.RTT) {
			best = i
		}
	}
	return best
}

// policyFactories builds fresh instances: RoundRobin carries per-world
// state, so policies are never shared between worlds.
var policyFactories = map[string]func() Policy{
	PinnedName:    func() Policy { return Pinned{} },
	"rtt":         func() Policy { return NearestRTT{} },
	"roundrobin":  func() Policy { return &RoundRobin{} },
	"leastloaded": func() Policy { return LeastLoaded{} },
}

// PolicyByName returns a fresh instance of the named selection policy.
func PolicyByName(name string) (Policy, bool) {
	f, ok := policyFactories[name]
	if !ok {
		return nil, false
	}
	return f(), true
}

// PolicyNames lists the registered selection policies, pinned first (the
// default), the rest sorted.
func PolicyNames() []string {
	out := make([]string, 0, len(policyFactories))
	for name := range policyFactories {
		if name != PinnedName {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return append([]string{PinnedName}, out...)
}
