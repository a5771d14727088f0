package netsim

import (
	"testing"
	"time"

	"realtracer/internal/simclock"
)

// rig is a two-host network for dynamics tests.
type rig struct {
	clock *simclock.Clock
	net   *Network
	got   []time.Duration // delivery times at "dst:1"
}

func newRig(route Route, spec *Dynamics, seed int64) *rig {
	r := &rig{clock: simclock.New()}
	r.net = New(r.clock, StaticRoute(route), 7)
	r.net.AddHost(HostConfig{Name: "src", Access: DefaultAccessProfile(AccessServer)})
	r.net.AddHost(HostConfig{Name: "dst", Access: DefaultAccessProfile(AccessServer)})
	r.net.Register("dst:1", func(*Packet) { r.got = append(r.got, r.clock.Now()) })
	if spec != nil {
		r.net.SetDynamics(spec, seed)
	}
	return r
}

// sendEvery schedules one small packet per interval over the horizon.
func (r *rig) sendEvery(interval, horizon time.Duration) int {
	n := 0
	for t := time.Duration(0); t < horizon; t += interval {
		r.clock.AtHandler(t, fireFunc(func(time.Duration) {
			r.net.Send(leased(r.net, Packet{From: "src:9", To: "dst:1", Size: 200}))
		}))
		n++
	}
	r.clock.Run()
	return n
}

func TestOutageWindowDropsEverything(t *testing.T) {
	spec := NewDynamics().Outage("src", "dst", 10*time.Second, 10*time.Second)
	r := newRig(Route{}, spec, 1)
	sent := r.sendEvery(time.Second, 30*time.Second)
	_, delivered, dropped := r.net.Stats()
	if dropped != 10 {
		t.Fatalf("dropped=%d want exactly the 10 in-window packets", dropped)
	}
	if int(delivered) != sent-10 {
		t.Fatalf("delivered=%d want %d", delivered, sent-10)
	}
	// No delivery time may fall inside the outage window (clean path: the
	// only delay is the access base delay, well under a second).
	for _, at := range r.got {
		if at >= 10*time.Second && at < 11*time.Second {
			t.Fatalf("delivery at %v inside outage window", at)
		}
	}
}

func TestDegradeRaisesLossOnlyInWindow(t *testing.T) {
	spec := NewDynamics().Degrade("*", "*", time.Minute, time.Minute, 0.5)
	r := newRig(Route{}, spec, 3)
	r.sendEvery(100*time.Millisecond, 3*time.Minute)
	_, _, dropped := r.net.Stats()
	// ~600 packets cross the window at 50% loss; outside it loss is zero.
	if dropped < 200 || dropped > 400 {
		t.Fatalf("dropped=%d want ~300 (50%% of the in-window 600)", dropped)
	}
}

func TestCapacityRampSlowsDelivery(t *testing.T) {
	route := Route{CapacityKbps: 1000}
	base := newRig(route, nil, 0)
	base.sendEvery(time.Second, time.Minute)
	ramped := newRig(route, NewDynamics().CapacityRamp("*", "*", 0, 30*time.Second, 0.05), 1)
	ramped.sendEvery(time.Second, time.Minute)
	// With the bottleneck ramped down to 5%, per-packet transmission takes
	// 20x longer; late packets must arrive strictly later than baseline.
	if len(base.got) == 0 || len(ramped.got) == 0 {
		t.Fatal("no deliveries")
	}
	lastBase, lastRamped := base.got[len(base.got)-1], ramped.got[len(ramped.got)-1]
	if lastRamped <= lastBase {
		t.Fatalf("ramped last delivery %v not later than baseline %v", lastRamped, lastBase)
	}
}

func TestDelayShiftMovesDeliveries(t *testing.T) {
	// A bounded 20s flap: latency rises inside the window and recovers
	// after it; a permanent (dur <= 0) shift would never recover.
	spec := NewDynamics().DelayShift("src", "*", 10*time.Second, 20*time.Second, 200*time.Millisecond)
	r := newRig(Route{}, spec, 1)
	for _, at := range []time.Duration{time.Second, 20 * time.Second, 40 * time.Second} {
		at := at
		r.clock.AtHandler(at, fireFunc(func(time.Duration) { r.net.Send(leased(r.net, Packet{From: "src:9", To: "dst:1", Size: 100})) }))
	}
	r.clock.Run()
	if len(r.got) != 3 {
		t.Fatalf("deliveries=%d want 3", len(r.got))
	}
	before := r.got[0] - time.Second
	during := r.got[1] - 20*time.Second
	after := r.got[2] - 40*time.Second
	if during-before < 150*time.Millisecond {
		t.Fatalf("in-window latency %v not ~200ms above pre-shift %v", during, before)
	}
	if after-before > 50*time.Millisecond {
		t.Fatalf("post-window latency %v did not recover to pre-shift %v", after, before)
	}
}

func TestDelayShiftPermanentWhenOpenEnded(t *testing.T) {
	spec := NewDynamics().DelayShift("src", "*", 10*time.Second, 0, 200*time.Millisecond)
	r := newRig(Route{}, spec, 1)
	r.clock.AtHandler(time.Second, fireFunc(func(time.Duration) { r.net.Send(leased(r.net, Packet{From: "src:9", To: "dst:1", Size: 100})) }))
	r.clock.AtHandler(time.Hour, fireFunc(func(time.Duration) { r.net.Send(leased(r.net, Packet{From: "src:9", To: "dst:1", Size: 100})) }))
	r.clock.Run()
	if len(r.got) != 2 {
		t.Fatalf("deliveries=%d want 2", len(r.got))
	}
	early, late := r.got[0]-time.Second, r.got[1]-time.Hour
	if late-early < 150*time.Millisecond {
		t.Fatalf("open-ended shift faded: %v vs %v", late, early)
	}
}

func TestLossBurstEpisodesAreBursty(t *testing.T) {
	// A chain that enters the bad state often and stays a while, with total
	// loss while bad: drops must appear in contiguous runs, not uniformly.
	spec := NewDynamics().LossBurst("*", "*", 0, 0, 0.2, 0.3, 1.0)
	r := newRig(Route{}, spec, 5)
	sent := r.sendEvery(100*time.Millisecond, 2*time.Minute)
	_, delivered, dropped := r.net.Stats()
	if int(delivered+dropped) != sent {
		t.Fatalf("conservation: %d+%d != %d", delivered, dropped, sent)
	}
	if dropped == 0 {
		t.Fatal("chain never entered the bad state")
	}
	// Bad-state dwell is ~1/0.3 s = ~3.3 s at 10 pkt/s: the longest drop run
	// must be far longer than uniform loss at the same rate would produce.
	// Reconstruct drop runs from the delivery times (10 Hz grid).
	deliveredAt := make(map[time.Duration]bool, len(r.got))
	for _, at := range r.got {
		// Clean path: delivery lands within the same 100ms slot it was sent.
		deliveredAt[at/(100*time.Millisecond)] = true
	}
	longest, run := 0, 0
	for i := 0; i < sent; i++ {
		if deliveredAt[time.Duration(i)] {
			run = 0
			continue
		}
		run++
		if run > longest {
			longest = run
		}
	}
	if longest < 10 {
		t.Fatalf("longest drop run %d slots; Gilbert–Elliott episodes should drop whole seconds", longest)
	}
}

func TestFlashCrowdCongestsBottleneck(t *testing.T) {
	route := Route{CapacityKbps: 500}
	base := newRig(route, nil, 0)
	base.sendEvery(500*time.Millisecond, 2*time.Minute)
	crowd := newRig(route, NewDynamics().FlashCrowd("*", "*", 30*time.Second, 10*time.Second, 30*time.Second, 0.9), 2)
	crowd.sendEvery(500*time.Millisecond, 2*time.Minute)
	_, _, baseDropped := base.net.Stats()
	// The spike leaves 10% of the bottleneck: queueing delay must grow.
	var baseSum, crowdSum time.Duration
	for _, at := range base.got {
		baseSum += at
	}
	for _, at := range crowd.got {
		crowdSum += at
	}
	if len(crowd.got) == len(base.got) && crowdSum <= baseSum {
		t.Fatalf("flash crowd had no effect: drops %d->%d, delay sum %v->%v",
			baseDropped, baseDropped, baseSum, crowdSum)
	}
}

func TestDiurnalShape(t *testing.T) {
	e := DynEvent{Kind: EventDiurnal, Period: time.Hour, Amplitude: 0.4}
	spec := &Dynamics{Events: []DynEvent{e}}
	r := newRig(Route{CapacityKbps: 1000, CongestionMean: 0}, spec, 1)
	// Probe the effective congestion addition directly via dynApply.
	src, dst := r.net.Intern("src"), r.net.Intern("dst")
	p := r.net.path(src, dst)
	r.clock.RunUntil(15 * time.Minute) // quarter period: sin^2 = 0.5
	eff := r.net.dynApply(p, src, dst, nil)
	if eff.congAdd < 0.15 || eff.congAdd > 0.25 {
		t.Fatalf("quarter-period congAdd=%.3f want ~0.2", eff.congAdd)
	}
	r.clock.RunUntil(30 * time.Minute) // half period: sin^2 = 1 -> amplitude
	eff = r.net.dynApply(p, src, dst, nil)
	if eff.congAdd < 0.35 {
		t.Fatalf("peak congAdd=%.3f want ~0.4", eff.congAdd)
	}
	r.clock.RunUntil(60 * time.Minute) // full period: back to ~0
	eff = r.net.dynApply(p, src, dst, nil)
	if eff.congAdd > 0.05 {
		t.Fatalf("full-period congAdd=%.3f want ~0", eff.congAdd)
	}
}

func TestMatchHostPatterns(t *testing.T) {
	cases := []struct {
		pattern, host string
		want          bool
	}{
		{"", "anything", true},
		{"*", "anything", true},
		{"cnn.us", "cnn.us", true},
		{"cnn.us", "abc.us", false},
		{"*.us", "cnn.us", true},
		{"*.us", "bbc.uk", false},
		{"*.us", "us", false},
	}
	// Exercise the compiled matcher — the one the packet path uses — against
	// hosts attached to a real network, so exact patterns go through ID
	// interning just as they do in production.
	n := New(simclock.New(), nil, 1)
	seen := map[string]bool{}
	for _, c := range cases {
		if !seen[c.host] {
			seen[c.host] = true
			n.AddHost(HostConfig{Name: c.host})
		}
	}
	for _, c := range cases {
		cp := n.compilePattern(c.pattern)
		id := n.HostIDOf(c.host)
		if id == 0 {
			t.Fatalf("host %q not interned", c.host)
		}
		if got := cp.match(id, c.host); got != c.want {
			t.Errorf("compilePattern(%q).match(%q)=%v want %v", c.pattern, c.host, got, c.want)
		}
	}
}

// TestDynamicsDeterministic pins the layer's reproducibility: the same
// schedule and seed yield identical stats; a different dynamics seed may
// diverge without touching the base network's RNG stream.
func TestDynamicsDeterministic(t *testing.T) {
	route := Route{CapacityKbps: 800, LossRate: 0.01, Jitter: 5 * time.Millisecond}
	spec := func() *Dynamics {
		return NewDynamics().
			LossBurst("*", "*", 0, 0, 0.1, 0.3, 0.8).
			FlashCrowd("*", "*", 20*time.Second, 5*time.Second, 20*time.Second, 0.6).
			Outage("src", "dst", 40*time.Second, 5*time.Second)
	}
	run := func(seed int64) (uint64, uint64, uint64) {
		r := newRig(route, spec(), seed)
		r.sendEvery(200*time.Millisecond, time.Minute)
		return r.net.Stats()
	}
	s1, d1, x1 := run(11)
	s2, d2, x2 := run(11)
	if s1 != s2 || d1 != d2 || x1 != x2 {
		t.Fatalf("same dynamics seed diverged: (%d,%d,%d) vs (%d,%d,%d)", s1, d1, x1, s2, d2, x2)
	}
}

// TestNoDynamicsIsInert pins the golden-output guarantee at the packet
// level: a network with no schedule — or an explicitly cleared one — is
// bit-identical to one that never touched the layer.
func TestNoDynamicsIsInert(t *testing.T) {
	route := Route{CapacityKbps: 700, LossRate: 0.02, Jitter: 9 * time.Millisecond, CongestionMean: 0.3, CongestionVar: 0.2}
	run := func(clear bool) ([]time.Duration, uint64, uint64, uint64) {
		r := newRig(route, nil, 0)
		if clear {
			r.net.SetDynamics(NewDynamics(), 99) // empty schedule: removed
		}
		r.sendEvery(150*time.Millisecond, time.Minute)
		s, d, x := r.net.Stats()
		return r.got, s, d, x
	}
	gotA, sA, dA, xA := run(false)
	gotB, sB, dB, xB := run(true)
	if sA != sB || dA != dB || xA != xB || len(gotA) != len(gotB) {
		t.Fatalf("empty dynamics changed the network: (%d,%d,%d) vs (%d,%d,%d)", sA, dA, xA, sB, dB, xB)
	}
	for i := range gotA {
		if gotA[i] != gotB[i] {
			t.Fatalf("delivery %d moved: %v vs %v", i, gotA[i], gotB[i])
		}
	}
}
