package study

import (
	"fmt"
	"sort"
	"time"

	"realtracer/internal/geo"
	"realtracer/internal/netsim"
)

// This file is the study-level dynamics catalog: named, intensity-scaled
// network-weather profiles built on the netsim dynamics layer. A profile
// name goes into Options.Dynamics ("" = the classic static Internet); the
// builder receives the filled options plus the world's server hosts and
// returns the concrete schedule, scaled to the study's own time horizon so
// the same profile works for a 4-user smoke test and a 1000-user campaign.

// DynamicsProfile is one catalog entry.
type DynamicsProfile struct {
	Name        string
	Description string
	// Build constructs the schedule for a filled Options at the given
	// intensity (1 = calibrated) over the server hosts.
	Build func(opt Options, intensity float64, serverHosts []string) *netsim.Dynamics
}

// studyHorizon estimates how much virtual time the bulk of a study spans:
// the stagger window plus a generous tail for the last user's playlist.
const studyHorizon = staggerWindow + 20*time.Minute

var dynamicsProfiles = map[string]DynamicsProfile{
	"outage": {
		Name:        "outage",
		Description: "rolling server-link outages: each site goes dark once, staggered through the run, with brief degradation shoulders",
		Build: func(opt Options, k float64, hosts []string) *netsim.Dynamics {
			h := studyHorizon
			d := netsim.NewDynamics()
			dur := time.Duration(k * float64(90*time.Second))
			for i, host := range hosts {
				at := time.Duration(float64(h) * (float64(i) + 0.5) / float64(len(hosts)))
				// Degradation shoulders on either side of the hard outage:
				// routers brown out before they black out.
				d.Degrade(host, "*", at-30*time.Second, 30*time.Second, 0.25*k)
				d.Degrade("*", host, at-30*time.Second, 30*time.Second, 0.25*k)
				d.Outage(host, "*", at, dur)
				d.Outage("*", host, at, dur)
				d.Degrade(host, "*", at+dur, 30*time.Second, 0.25*k)
				d.Degrade("*", host, at+dur, 30*time.Second, 0.25*k)
			}
			return d
		},
	},
	"flashcrowd": {
		Name:        "flashcrowd",
		Description: "two global flash-crowd congestion spikes (sharp rise, slow decay) at one and two thirds of the run",
		Build: func(opt Options, k float64, hosts []string) *netsim.Dynamics {
			h := studyHorizon
			amp := 0.45 * k
			if amp > 0.9 {
				amp = 0.9
			}
			return netsim.NewDynamics().
				FlashCrowd("*", "*", h/3, 2*time.Minute, 8*time.Minute, amp).
				FlashCrowd("*", "*", 2*h/3, 2*time.Minute, 8*time.Minute, amp)
		},
	},
	"lossburst": {
		Name:        "lossburst",
		Description: "Gilbert–Elliott loss-burst episodes on every path for the whole run (bursty seconds-long loss, not uniform thinning)",
		Build: func(opt Options, k float64, hosts []string) *netsim.Dynamics {
			// Bad-state dwell ~4s, active ~14% of the time; at the calibrated
			// intensity a bad second loses a quarter of its packets — enough
			// to overwhelm FEC and force NACK retransmission.
			bad := 0.25 * k
			if bad > 0.95 {
				bad = 0.95
			}
			return netsim.NewDynamics().
				LossBurst("*", "*", 0, 0, 0.04, 0.25, bad)
		},
	},
	"diurnal": {
		Name:        "diurnal",
		Description: "diurnal cross-traffic cycle: congestion swells and ebbs twice over the run on every path",
		Build: func(opt Options, k float64, hosts []string) *netsim.Dynamics {
			h := studyHorizon
			amp := 0.30 * k
			if amp > 0.9 {
				amp = 0.9
			}
			return netsim.NewDynamics().
				Diurnal("*", "*", 0, 0, h/2, amp)
		},
	},
	"routeflap": {
		Name:        "routeflap",
		Description: "mid-session route changes: every path shifts to a longer route partway through, with capacity ramping down, then partially recovers",
		Build: func(opt Options, k float64, hosts []string) *netsim.Dynamics {
			h := studyHorizon
			delta := time.Duration(k * float64(120*time.Millisecond))
			return netsim.NewDynamics().
				DelayShift("*", "*", h/3, h/3, delta).
				CapacityRamp("*", "*", h/3, 5*time.Minute, 1/(1+0.5*k)).
				CapacityRamp("*", "*", 2*h/3, 5*time.Minute, 1+0.5*k)
		},
	},
}

// DynamicsProfiles lists the catalog, sorted by name.
func DynamicsProfiles() []DynamicsProfile {
	out := make([]DynamicsProfile, 0, len(dynamicsProfiles))
	for _, p := range dynamicsProfiles {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// DynamicsLabel is the condition label stamped on the run's records: the
// profile name, suffixed with the intensity when it is not the calibrated
// 1x ("lossburst", "lossburst-2x"). Distinct labels keep a fault-injection
// sweep's intensity arms separate in the robustness breakdown.
func (o Options) DynamicsLabel() string {
	if o.Dynamics == "" {
		return ""
	}
	k := o.DynamicsIntensity
	if k == 0 || k == 1 {
		return o.Dynamics
	}
	return fmt.Sprintf("%s-%gx", o.Dynamics, k)
}

// buildDynamics resolves the options' dynamics configuration to a concrete
// schedule, or (nil, nil) when dynamics are off.
func buildDynamics(opt Options, sites []geo.ServerSite) (*netsim.Dynamics, error) {
	if opt.Dynamics == "" {
		return nil, nil
	}
	p, ok := dynamicsProfiles[opt.Dynamics]
	if !ok {
		return nil, fmt.Errorf("study: unknown dynamics profile %q", opt.Dynamics)
	}
	k := opt.DynamicsIntensity
	if k == 0 {
		k = 1
	}
	active := geo.ActiveSites(sites)
	hosts := make([]string, 0, len(active))
	for _, s := range active {
		hosts = append(hosts, s.Host)
	}
	return p.Build(opt, k, hosts), nil
}
