package netsim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"realtracer/internal/simclock"
)

// randRoutes is a RouteTable with an independent random route per ordered
// host pair, fixed at construction so lookups are stable.
type randRoutes struct {
	routes map[[2]string]Route
}

func (r *randRoutes) Route(from, to string) Route { return r.routes[[2]string{from, to}] }

func buildRandRoutes(rng *rand.Rand, hosts []string) *randRoutes {
	t := &randRoutes{routes: make(map[[2]string]Route)}
	for _, a := range hosts {
		for _, b := range hosts {
			if a == b {
				continue
			}
			var rt Route
			if rng.Float64() < 0.8 { // some pairs keep the zero (LAN) route
				rt = Route{
					OneWayDelay:    time.Duration(rng.Intn(150)) * time.Millisecond,
					Jitter:         time.Duration(rng.Intn(30)) * time.Millisecond,
					LossRate:       rng.Float64() * 0.05,
					CapacityKbps:   float64(100 + rng.Intn(2000)),
					CongestionMean: rng.Float64() * 0.5,
					CongestionVar:  rng.Float64() * 0.2,
				}
			}
			t.routes[[2]string{a, b}] = rt
		}
	}
	return t
}

// randDynamics composes a random schedule from every event kind.
func randDynamics(rng *rand.Rand, hosts []string) *Dynamics {
	pick := func() string {
		switch rng.Intn(3) {
		case 0:
			return "*"
		default:
			return hosts[rng.Intn(len(hosts))]
		}
	}
	d := NewDynamics()
	for i, n := 0, 1+rng.Intn(5); i < n; i++ {
		from, to := pick(), pick()
		start := time.Duration(rng.Intn(60)) * time.Second
		dur := time.Duration(1+rng.Intn(30)) * time.Second
		switch rng.Intn(6) {
		case 0:
			d.Outage(from, to, start, dur)
		case 1:
			d.Degrade(from, to, start, dur, rng.Float64())
		case 2:
			d.CapacityRamp(from, to, start, dur, rng.Float64()*2)
		case 3:
			d.Diurnal(from, to, 0, 0, time.Duration(10+rng.Intn(60))*time.Second, rng.Float64()*0.8)
		case 4:
			d.FlashCrowd(from, to, start, dur/2, dur, rng.Float64()*0.9)
		case 5:
			d.LossBurst(from, to, start, 0, rng.Float64()*0.3, 0.1+rng.Float64()*0.5, rng.Float64())
		}
	}
	if rng.Float64() < 0.5 {
		d.DelayShift(pick(), pick(), time.Duration(rng.Intn(45))*time.Second, 0,
			time.Duration(rng.Intn(300))*time.Millisecond)
	}
	return d
}

// TestConservationAndFIFOUnderRandomDynamics is the netsim conservation
// property: for random topologies and random dynamics schedules, every
// packet offered to the network is eventually either delivered or dropped
// (delivered + dropped == sent once the event queue drains), and delivery
// on each ordered host pair is FIFO — the fluid queues never reorder a
// path's packets, dynamics or not.
func TestConservationAndFIFOUnderRandomDynamics(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			clock := simclock.New()

			nHosts := 3 + rng.Intn(4)
			hosts := make([]string, nHosts)
			for i := range hosts {
				hosts[i] = fmt.Sprintf("h%d", i)
			}
			n := New(clock, buildRandRoutes(rng, hosts), int64(trial))
			classes := []AccessClass{AccessModem, AccessDSLCable, AccessT1LAN, AccessServer}
			for _, h := range hosts {
				n.AddHost(HostConfig{Name: h, Access: DefaultAccessProfile(classes[rng.Intn(len(classes))])})
			}
			if trial%3 != 0 { // every third trial runs dynamics-free
				n.SetDynamics(randDynamics(rng, hosts), int64(trial*7+1))
			}

			// One delivery log per ordered host pair; packets carry their
			// per-pair send sequence as payload.
			arrived := make(map[[2]string][]int)
			for _, h := range hosts {
				h := h
				n.Register(Addr(h+":1"), func(pkt *Packet) {
					key := [2]string{pkt.From.Host(), pkt.To.Host()}
					arrived[key] = append(arrived[key], pkt.Payload.(int))
				})
			}

			// Sequence numbers are assigned at send time (callbacks fire in
			// timestamp order), so each pair's payloads are monotone in the
			// order the packets actually entered the network.
			sent := 0
			nextSeq := make(map[[2]string]int)
			for i, np := 0, 200+rng.Intn(400); i < np; i++ {
				from := hosts[rng.Intn(nHosts)]
				to := hosts[rng.Intn(nHosts)]
				if from == to {
					continue
				}
				key := [2]string{from, to}
				size := 40 + rng.Intn(1400)
				at := time.Duration(rng.Intn(90_000)) * time.Millisecond
				clock.AtHandler(at, fireFunc(func(time.Duration) {
					seq := nextSeq[key]
					nextSeq[key] = seq + 1
					n.Send(&Packet{From: Addr(from + ":1"), To: Addr(to + ":1"), Size: size, Payload: seq})
				}))
				sent++
			}
			clock.Run()

			s, d, x := n.Stats()
			if int(s) != sent {
				t.Fatalf("sent=%d want %d", s, sent)
			}
			if d+x != s {
				t.Fatalf("conservation violated: delivered %d + dropped %d != sent %d", d, x, s)
			}
			for key, seqs := range arrived {
				for i := 1; i < len(seqs); i++ {
					if seqs[i] <= seqs[i-1] {
						t.Fatalf("path %v->%v delivered out of order: %v", key[0], key[1], seqs)
					}
				}
			}
		})
	}
}
