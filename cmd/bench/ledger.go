package main

import (
	"fmt"
	"time"

	"realtracer/internal/core"
	"realtracer/internal/figures"
	"realtracer/internal/netsim"
	"realtracer/internal/simclock"
	"realtracer/internal/stats"
	"realtracer/internal/study"
	"realtracer/internal/trace"
	"realtracer/internal/transport"
)

// The layer ledger: one isolated loop per layer, built only from the
// layer's exported API, so a layer's unit cost is on record next to the
// share of a whole run it accounts for. Each lane is sized like a Go
// benchmark (grow the batch until it lasts laneMin) and sampled laneSamples
// times; the median is reported. Lanes that the engine promises are
// allocation-free say so, and the ledger fails if they allocate.

// laneConfig sizes every lane; tests shrink it.
type laneConfig struct {
	samples int
	min     time.Duration
}

var fullLanes = laneConfig{samples: 5, min: 80 * time.Millisecond}

// zeroAllocBudget is what an "allocation-free" lane may average per op:
// room for the runtime's own background allocations, none for a per-op one.
const zeroAllocBudget = 0.01

// lane measures op (which performs n operations) and returns the median
// ns/op and allocs/op.
func (lc laneConfig) lane(op func(n int)) (nsPerOp, allocsPerOp float64) {
	op(64) // warm pools, free-lists and lazily grown tables
	n := 64
	for {
		t0 := time.Now()
		op(n)
		if d := time.Since(t0); d >= lc.min || n >= 1<<28 {
			break
		} else if d < lc.min/16 {
			n *= 8
		} else {
			n *= 2
		}
	}
	var ns, allocs []float64
	for i := 0; i < lc.samples; i++ {
		m0 := readMem()
		t0 := time.Now()
		op(n)
		d := time.Since(t0)
		m1 := readMem()
		ns = append(ns, float64(d)/float64(n))
		allocs = append(allocs, float64(m1.mallocs-m0.mallocs)/float64(n))
	}
	return median(ns), median(allocs)
}

// ledgerTick re-arms itself from inside Fire: the steady-state shape of the
// simulation's recurring timers (pace ticks, switch checks, RTO, gossip).
type ledgerTick struct {
	c *simclock.Clock
	d time.Duration
}

func (h *ledgerTick) Fire(time.Duration) { h.c.AfterHandler(h.d, h) }

// rearmLane steps a clock holding pending self-re-arming timers.
func rearmLane(lc laneConfig, pending int) (ns, allocs float64) {
	c := simclock.New()
	period := time.Duration(pending) * 100 * time.Microsecond
	for i := 0; i < pending; i++ {
		c.AfterHandler(time.Duration(i)*100*time.Microsecond, &ledgerTick{c: c, d: period})
	}
	return lc.lane(func(n int) {
		for i := 0; i < n; i++ {
			c.Step()
		}
	})
}

// cancelLane is the transient-timer churn (RTO armed on send, cancelled on
// ACK): per op it arms a timer 50 ms out, cancels it, and steps one of
// pending recurring timers, which moves time on so the wheel reaps the
// cancelled event and recycles it. Cancellation is lazy, so without the
// step every op would leave a tombstone and allocate.
func cancelLane(lc laneConfig, pending int) (ns, allocs float64) {
	c := simclock.New()
	period := time.Duration(pending) * 100 * time.Microsecond
	for i := 0; i < pending; i++ {
		c.AfterHandler(time.Duration(i)*100*time.Microsecond, &ledgerTick{c: c, d: period})
	}
	h := &ledgerTick{c: c, d: time.Hour}
	return lc.lane(func(n int) {
		for i := 0; i < n; i++ {
			c.AfterHandler(50*time.Millisecond, h).Cancel()
			c.Step()
		}
	})
}

func twoHosts(route netsim.Route) (*simclock.Clock, *netsim.Network) {
	clock := simclock.New()
	n := netsim.New(clock, netsim.StaticRoute(route), 1)
	n.AddHost(netsim.HostConfig{Name: "a", Access: netsim.DefaultAccessProfile(netsim.AccessServer)})
	n.AddHost(netsim.HostConfig{Name: "b", Access: netsim.DefaultAccessProfile(netsim.AccessT1LAN)})
	return clock, n
}

// hopLane offers, shapes and delivers one raw packet per op, with the
// pre-resolved IDs and ports the transport layer would supply. weather
// installs the study's lossburst profile first, so every hop also advances
// a Gilbert–Elliott chain.
func hopLane(lc laneConfig, weather bool) (ns, allocs float64) {
	clock, n := twoHosts(netsim.Route{})
	if weather {
		n.SetDynamics(netsim.NewDynamics().LossBurst("*", "*", 0, 0, 0.04, 0.25, 0.5), 7)
	}
	from, to := netsim.Addr("a:9"), netsim.Addr("b:7000")
	fromID, toID := n.Intern("a"), n.Intern("b")
	n.Register(to, func(*netsim.Packet) {})
	return lc.lane(func(k int) {
		for i := 0; i < k; i++ {
			p := n.Obtain()
			p.From, p.To = from, to
			p.FromID, p.ToID = fromID, toID
			p.FromPort, p.ToPort = 9, 7000
			p.Size = 528
			n.Send(p)
			clock.Run()
		}
	})
}

// hostCycleLane attaches a host, registers a handler on it and detaches it
// again: the open-loop arrival/departure churn.
func hostCycleLane(lc laneConfig) (ns, allocs float64) {
	_, n := twoHosts(netsim.Route{})
	cfg := netsim.HostConfig{Name: "churn", Access: netsim.DefaultAccessProfile(netsim.AccessDSLCable)}
	addr := netsim.Addr("churn:7000")
	h := func(*netsim.Packet) {}
	return lc.lane(func(k int) {
		for i := 0; i < k; i++ {
			n.AddHost(cfg)
			n.Register(addr, h)
			n.RemoveHost(cfg.Name)
		}
	})
}

// udpLane sends one datagram per op through transport.Stack.
func udpLane(lc laneConfig) (ns, allocs float64) {
	clock, n := twoHosts(netsim.Route{})
	sa, sb := transport.NewStack(n, "a"), transport.NewStack(n, "b")
	sb.ListenUDP(7000, func(string, any, int) {})
	conn := sa.DialUDP("b:7000")
	return lc.lane(func(k int) {
		for i := 0; i < k; i++ {
			_ = conn.Send(nil, 500) // a UDP send on an open conn cannot fail
			clock.Run()
		}
	})
}

// tcpLane sends one data segment (and receives its ACK) per op on an
// established simulated TCP connection over a route losing lossRate of its
// packets; with loss the op also pays RTO and retransmission.
func tcpLane(lc laneConfig, lossRate float64) (ns, allocs float64, err error) {
	clock, n := twoHosts(netsim.Route{OneWayDelay: 10 * time.Millisecond, LossRate: lossRate})
	sa, sb := transport.NewStack(n, "a"), transport.NewStack(n, "b")
	sb.Listen(554, func(c transport.Conn) { c.SetReceiver(func(any, int) {}) })
	var conn transport.Conn
	var dialErr error
	sa.DialTCP("b:554", func(c transport.Conn, err error) { conn, dialErr = c, err })
	clock.Run()
	if dialErr != nil || conn == nil {
		return 0, 0, fmt.Errorf("ledger: tcp handshake did not complete: %v", dialErr)
	}
	var sendErr error
	ns, allocs = lc.lane(func(k int) {
		for i := 0; i < k; i++ {
			if err := conn.Send(nil, 500); err != nil {
				sendErr = err
			}
			clock.Run()
		}
	})
	if sendErr != nil {
		return 0, 0, fmt.Errorf("ledger: tcp send: %w", sendErr)
	}
	return ns, allocs, nil
}

// sessionLane plays one whole clip through server, player, rdt and rtsp
// (core.RunSession, the Figure-1 path) and returns the median host ms.
func sessionLane(lc laneConfig, proto transport.Protocol) (float64, error) {
	var ms []float64
	for i := 0; i < lc.samples; i++ {
		t0 := time.Now()
		_, err := core.RunSession(core.SessionOptions{
			Protocol:     proto,
			ClientAccess: netsim.AccessDSLCable,
			Route: netsim.Route{
				OneWayDelay: 40 * time.Millisecond, Jitter: 8 * time.Millisecond, LossRate: 0.005,
				CapacityKbps: 900, CongestionMean: 0.2, CongestionVar: 0.1,
			},
			ClipKbps: 225,
			PlayFor:  70 * time.Second,
			Seed:     1,
		})
		if err != nil {
			return 0, fmt.Errorf("ledger: %v session: %w", proto, err)
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	return median(ms), nil
}

// ledgerValues is a fixed pseudo-random sample in the range of the study's
// observables (fps, jitter ms, kbps), so the sketch lanes bin realistically.
func ledgerValues() []float64 {
	vals := make([]float64, 4096)
	x := uint64(12345)
	for i := range vals {
		x = x*6364136223846793005 + 1442695040888963407
		vals[i] = float64(x>>40) / float64(1<<24) * 500
	}
	return vals
}

// ledgerRecords is a small real record set (an 6-user, 3-clip panel) for
// the aggregate lanes to cycle through.
func ledgerRecords() ([]*trace.Record, error) {
	res, err := study.Run(study.Options{Seed: 1, MaxUsers: 6, ClipCap: 3})
	if err != nil {
		return nil, fmt.Errorf("ledger: sample records: %w", err)
	}
	if len(res.Records) == 0 {
		return nil, fmt.Errorf("ledger: sample study produced no records")
	}
	return res.Records, nil
}

// runLedger runs every lane and returns the ledger_* (and core.session_*)
// metrics. The error lists allocation-free lanes that allocated.
func runLedger(lc laneConfig) (map[string]float64, error) {
	out := map[string]float64{}
	var broken []string
	zero := func(name string, allocs float64) {
		if allocs > zeroAllocBudget {
			broken = append(broken, fmt.Sprintf("%s: %.3f allocs/op", name, allocs))
		}
	}

	ns, allocs := rearmLane(lc, 1000)
	out["simclock.ledger_rearm_ns_1k"] = ns
	zero("simclock rearm 1k", allocs)
	ns, allocs = rearmLane(lc, 10000)
	out["simclock.ledger_rearm_ns_10k"] = ns
	zero("simclock rearm 10k", allocs)
	ns, allocs = cancelLane(lc, 1000)
	out["simclock.ledger_cancel_ns_1k"] = ns
	zero("simclock cancel 1k", allocs)

	ns, allocs = hopLane(lc, false)
	out["netsim.ledger_hop_ns"], out["netsim.ledger_hop_allocs"] = ns, allocs
	zero("netsim hop", allocs)
	ns, allocs = hopLane(lc, true)
	out["netsim.ledger_hop_weather_ns"] = ns
	zero("netsim weather hop", allocs)
	out["netsim.ledger_host_cycle_ns"], _ = hostCycleLane(lc)

	ns, allocs = udpLane(lc)
	out["transport.ledger_udp_msg_ns"] = ns
	zero("transport udp msg", allocs)
	ns, allocs, err := tcpLane(lc, 0)
	if err != nil {
		return nil, err
	}
	out["transport.ledger_tcp_msg_ns"], out["transport.ledger_allocs_per_msg"] = ns, allocs
	if out["transport.ledger_tcp_lossy_msg_ns"], _, err = tcpLane(lc, 0.01); err != nil {
		return nil, err
	}

	if out["core.session_udp_ms"], err = sessionLane(lc, transport.UDP); err != nil {
		return nil, err
	}
	if out["core.session_tcp_ms"], err = sessionLane(lc, transport.TCP); err != nil {
		return nil, err
	}

	vals := ledgerValues()
	sk := stats.NewSketch()
	out["stats.ledger_sketch_add_ns"], _ = lc.lane(func(n int) {
		for i := 0; i < n; i++ {
			sk.Add(vals[i&4095])
		}
	})
	ds := stats.NewDist()
	out["stats.ledger_dist_add_ns"], _ = lc.lane(func(n int) {
		for i := 0; i < n; i++ {
			ds.Add(vals[i&4095])
		}
	})

	recs, err := ledgerRecords()
	if err != nil {
		return nil, err
	}
	agg := figures.NewAggregates()
	out["figures.ledger_observe_ns"], _ = lc.lane(func(n int) {
		for i := 0; i < n; i++ {
			agg.Observe(recs[i%len(recs)])
		}
	})
	part := figures.Aggregate(recs)
	ns, _ = lc.lane(func(n int) {
		for i := 0; i < n; i++ {
			figures.NewAggregates().Merge(part)
		}
	})
	out["figures.ledger_merge_us"] = ns / 1e3

	if len(broken) > 0 {
		return out, fmt.Errorf("ledger: allocation-free lanes allocated: %v", broken)
	}
	return out, nil
}
