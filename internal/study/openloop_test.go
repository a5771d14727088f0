package study

import (
	"bytes"
	"testing"

	"realtracer/internal/trace"
)

// openLoopOpts is a reduced open-loop study the lifecycle tests share.
func openLoopOpts() Options {
	return Options{Seed: 5, MaxUsers: 10, ClipCap: 2, Workload: "poisson", Arrivals: 20}
}

// TestOpenLoopRunCompletes: an open-loop study admits its full arrival
// budget, every session ends, and the session accounting adds up.
func TestOpenLoopRunCompletes(t *testing.T) {
	res, err := Run(openLoopOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Sessions+res.Balked != 20 {
		t.Fatalf("sessions=%d + balked=%d != 20 arrivals", res.Sessions, res.Balked)
	}
	if res.Sessions == 0 || len(res.Records) == 0 {
		t.Fatalf("open-loop run produced %d sessions, %d records", res.Sessions, len(res.Records))
	}
	for _, r := range res.Records {
		if r.Policy != "pinned" {
			t.Fatalf("open-loop record policy = %q, want pinned default", r.Policy)
		}
		if r.EndSec <= r.StartSec {
			t.Fatalf("record time span [%g, %g] not increasing", r.StartSec, r.EndSec)
		}
	}
}

// TestOpenLoopDeterministic: the same options reproduce byte-identical
// records — arrivals, Zipf picks, abandonment and all.
func TestOpenLoopDeterministic(t *testing.T) {
	a, err := Run(openLoopOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(openLoopOpts())
	if err != nil {
		t.Fatal(err)
	}
	var ba, bb bytes.Buffer
	if err := trace.WriteCSV(&ba, a.Records); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteCSV(&bb, b.Records); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatal("open-loop records differ between identical runs")
	}
	if a.Sessions != b.Sessions || a.Departed != b.Departed || a.Balked != b.Balked {
		t.Fatal("open-loop session accounting differs between identical runs")
	}
}

// TestOpenLoopWorkloadSeedIndependent: a different WorkloadSeed changes the
// arrival track without touching the world seed — the decoupling the
// campaign engine's per-scenario derivation depends on.
func TestOpenLoopWorkloadSeedIndependent(t *testing.T) {
	opt := openLoopOpts()
	a, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.WorkloadSeed = 999
	b, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.SimDuration == b.SimDuration && len(a.Records) == len(b.Records) {
		t.Fatal("changing WorkloadSeed left the run untouched")
	}
}

// TestOpenLoopChurnReleasesAndReuses is the session-lifecycle regression:
// sessions that depart mid-stream leave no packets unaccounted for
// (delivered + dropped == sent, so every pooled packet was released), every
// host is detached by the end, and with more arrivals than templates a
// re-arriving user got a fresh session under the same host name.
func TestOpenLoopChurnReleasesAndReuses(t *testing.T) {
	opt := Options{Seed: 11, MaxUsers: 6, ClipCap: 2, Workload: "poisson", Arrivals: 25, WorkloadIntensity: 3}
	w, err := NewWorld(opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Departed == 0 {
		t.Fatal("churn run saw no mid-stream departures; the abandonment path went untested")
	}
	if res.Sessions <= opt.MaxUsers {
		t.Fatalf("only %d sessions over a %d-template pool; no template was ever reused", res.Sessions, opt.MaxUsers)
	}
	sent, delivered, dropped := w.Net.Stats()
	if delivered+dropped != sent {
		t.Fatalf("packet conservation broken under churn: sent=%d delivered=%d dropped=%d", sent, delivered, dropped)
	}
	for _, u := range w.Users {
		if w.Net.Attached(u.Name) {
			t.Fatalf("host %s still attached after its last departure", u.Name)
		}
	}
	// A departed client can never send TEARDOWN, so endSession must reap
	// the orphaned server-side sessions — otherwise the ActiveSessions
	// load probe drifts upward forever and the leastloaded policy steers
	// by phantom load.
	for i, srv := range w.Servers {
		if n := srv.ActiveSessions(); n != 0 {
			t.Fatalf("server %s still counts %d active sessions after all departures", w.ActiveSites[i].Name, n)
		}
	}
	// Re-used templates produced records in more than one disjoint time
	// span — the re-arrival was a fresh session, not a resumed one.
	firstEnd := map[string]float64{}
	reused := false
	for _, r := range res.Records {
		if end, ok := firstEnd[r.User]; ok && r.StartSec > end {
			reused = true
		}
		if r.EndSec > firstEnd[r.User] {
			firstEnd[r.User] = r.EndSec
		}
	}
	if !reused {
		t.Fatal("no template produced two time-disjoint sessions")
	}
}

// TestOpenLoopSelectionSpreadsLoad: under pinned selection the Zipf head
// concentrates plays on home sites; round-robin and least-loaded must
// spread them across more servers.
func TestOpenLoopSelectionSpreadsLoad(t *testing.T) {
	servers := func(sel string) map[string]int {
		opt := Options{Seed: 7, MaxUsers: 12, ClipCap: 2, Workload: "poisson", Arrivals: 30, Selection: sel}
		res, err := Run(opt)
		if err != nil {
			t.Fatalf("%s: %v", sel, err)
		}
		out := map[string]int{}
		for _, r := range res.Records {
			if !r.Unavailable && !r.Failed {
				out[r.Server]++
			}
		}
		return out
	}
	pinned := servers("pinned")
	rr := servers("roundrobin")
	if len(rr) <= len(pinned) {
		t.Fatalf("roundrobin used %d servers, pinned %d; rotation did not spread load", len(rr), len(pinned))
	}
}

// TestOptionValidation: negative or contradictory options error out of
// NewWorld instead of building empty or nonsense worlds.
func TestOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opt  Options
	}{
		{"negative MaxUsers", Options{Seed: 1, MaxUsers: -5}},
		{"negative ClipCap", Options{Seed: 1, ClipCap: -1}},
		{"negative Arrivals", Options{Seed: 1, Workload: "poisson", Arrivals: -3}},
		{"negative DynamicsIntensity", Options{Seed: 1, Dynamics: "outage", DynamicsIntensity: -1}},
		{"negative WorkloadIntensity", Options{Seed: 1, Workload: "poisson", WorkloadIntensity: -2}},
		{"negative CongestionScale", Options{Seed: 1, CongestionScale: -1}},
		{"selection without workload", Options{Seed: 1, Selection: "rtt"}},
		{"workload intensity without workload", Options{Seed: 1, WorkloadIntensity: 2}},
		{"unknown workload", Options{Seed: 1, Workload: "tsunami"}},
		{"unknown selection", Options{Seed: 1, Workload: "poisson", Selection: "psychic"}},
		{"unknown dynamics", Options{Seed: 1, Dynamics: "asteroid"}},
		{"unknown controller", Options{Seed: 1, Controller: "bbr"}},
	}
	for _, c := range cases {
		if _, err := NewWorld(c.opt); err == nil {
			t.Errorf("%s: NewWorld accepted %+v", c.name, c.opt)
		}
	}
	// The panel alias is not an error, with or without the explicit name.
	for _, name := range []string{"", "panel"} {
		if _, err := NewWorld(Options{Seed: 1, MaxUsers: 2, ClipCap: 1, Workload: name}); err != nil {
			t.Errorf("workload %q rejected: %v", name, err)
		}
	}
}

// TestPanelIgnoresWorkloadKnobs: the "panel" workload name is the classic
// closed loop — same records as a zero-value Options run.
func TestPanelIgnoresWorkloadKnobs(t *testing.T) {
	a, err := Run(Options{Seed: 3, MaxUsers: 3, ClipCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Options{Seed: 3, MaxUsers: 3, ClipCap: 2, Workload: "panel"})
	if err != nil {
		t.Fatal(err)
	}
	var ba, bb bytes.Buffer
	if err := trace.WriteCSV(&ba, a.Records); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteCSV(&bb, b.Records); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatal("panel-by-name differs from the default closed loop")
	}
}

// TestOpenLoopArrivalRateObserved: the realized arrival train lands within
// tolerance of the calibrated rate once embedded in a full world — the
// end-to-end check behind the pure-process tests in internal/workload.
func TestOpenLoopArrivalRateObserved(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-session study")
	}
	opt := Options{Seed: 21, MaxUsers: 60, ClipCap: 1, Workload: "poisson", Arrivals: 300}
	w, err := NewWorld(opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	// rate = 0.4·pool / (1 clip · sessionClipCycle) sessions/sec.
	wantRate := 0.4 * 60 / (68.0)
	// The last session's tail extends past the final arrival; bound the
	// comparison by the arrival span instead of the full run.
	var lastStart float64
	for _, r := range res.Records {
		if r.StartSec > lastStart {
			lastStart = r.StartSec
		}
	}
	gotRate := float64(res.Sessions+res.Balked) / lastStart
	if gotRate < 0.7*wantRate || gotRate > 1.4*wantRate {
		t.Fatalf("observed arrival rate %.3f/s, want ≈%.3f/s", gotRate, wantRate)
	}
}
