package study

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"realtracer/internal/netsim"
	"realtracer/internal/trace"
)

// shardOpts is the open-loop study the sharding tests share: a pool large
// enough to split into several arrival cells across several countries,
// driven hard enough that sessions overlap, balk and abandon.
func shardOpts(shards int) Options {
	return Options{
		Seed:              17,
		MaxUsers:          24,
		ClipCap:           2,
		Workload:          "poisson",
		Arrivals:          60,
		WorkloadIntensity: 2,
		Shards:            shards,
	}
}

func runCSV(t *testing.T, opt Options) (*Result, []byte) {
	t.Helper()
	res, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, res.Records); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// TestShardEquivalence is the sharding tentpole's contract: for a fixed
// seed the record stream is byte-identical for every shard count, and
// repeat runs at the same count are byte-identical too. CI runs this test
// under -race, which also makes it the shard-isolation fence: any state
// two shards both touch outside the fabric's barriers is a reported race.
//
// The arms walk the compatibility matrix: the base open-loop engine, the
// dynamics layer (shared read-only schedule, per-path chain state and
// draws), and least-loaded selection (gossip-delayed load views). Each arm
// holds shards 1/2/4 byte-identical among themselves — never against the
// classic engine, whose event interleaving legitimately differs.
func TestShardEquivalence(t *testing.T) {
	arms := []struct {
		name string
		prep func(*Options)
	}{
		{"base", func(*Options) {}},
		{"dynamics", func(o *Options) { o.Dynamics = "lossburst"; o.DynamicsIntensity = 1 }},
		{"leastloaded", func(o *Options) { o.Selection = "leastloaded" }},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			opts := func(shards int) Options {
				o := shardOpts(shards)
				arm.prep(&o)
				return o
			}
			base, baseCSV := runCSV(t, opts(1))
			if base.Sessions <= 0 || len(base.Records) == 0 {
				t.Fatalf("degenerate baseline: %d sessions, %d records", base.Sessions, len(base.Records))
			}
			if base.Departed == 0 {
				t.Fatal("baseline saw no mid-stream departures; the cross-shard teardown path went untested")
			}
			for _, shards := range []int{2, 4} {
				res, csv := runCSV(t, opts(shards))
				if !bytes.Equal(csv, baseCSV) {
					t.Errorf("shards=%d records differ from shards=1 (%d vs %d records)",
						shards, len(res.Records), len(base.Records))
				}
				if res.Sessions != base.Sessions || res.Balked != base.Balked || res.Departed != base.Departed {
					t.Errorf("shards=%d accounting (%d/%d/%d) differs from shards=1 (%d/%d/%d)",
						shards, res.Sessions, res.Balked, res.Departed,
						base.Sessions, base.Balked, base.Departed)
				}
			}
			_, againCSV := runCSV(t, opts(2))
			if !bytes.Equal(againCSV, baseCSV) {
				t.Error("repeat shards=2 run is not deterministic")
			}
		})
	}
}

// TestShardedLeastLoadedGossipBites proves the load gossip actually feeds
// selections. With every load equal, LeastLoaded.Pick degenerates exactly
// to NearestRTT.Pick (load ties all break on RTT) — so if the gossiped
// views never carried a differentiating value, the two policies would
// produce byte-identical runs and the leastloaded equivalence arm would be
// vacuously green.
func TestShardedLeastLoadedGossipBites(t *testing.T) {
	ll := shardOpts(2)
	ll.Selection = "leastloaded"
	rtt := shardOpts(2)
	rtt.Selection = "rtt"
	_, llCSV := runCSV(t, ll)
	_, rttCSV := runCSV(t, rtt)
	if bytes.Equal(llCSV, rttCSV) {
		t.Fatal("leastloaded run is byte-identical to rtt: gossiped load views never changed a pick")
	}
}

// TestShardedWorldRuns exercises a sharded world at a population size where
// every shard owns several cells and cross-shard traffic dominates, and
// checks the run completes with sane accounting — the smoke test ahead of
// the byte-level contract above.
func TestShardedWorldRuns(t *testing.T) {
	opt := Options{Seed: 5, ClipCap: 1, Workload: "poisson", Arrivals: 80, Shards: 3}
	res, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sessions+res.Balked != 80 {
		t.Fatalf("sessions %d + balked %d != 80 arrivals", res.Sessions, res.Balked)
	}
	if len(res.Records) == 0 {
		t.Fatal("sharded run produced no records")
	}
	if res.SimDuration <= 0 || res.Events == 0 {
		t.Fatalf("degenerate run: duration %v, %d events", res.SimDuration, res.Events)
	}
}

// TestShardedWorldPastOldGridLimit builds a sharded world of 1,100 user
// templates — more hosts than the 1,024 the network's path table used to hold
// before a sharded build was refused with a panic — and holds it to the same
// contract as any other: a handful of arrivals, shards 2 record-for-record
// equal to shards 1.
func TestShardedWorldPastOldGridLimit(t *testing.T) {
	opts := func(shards int) Options {
		return Options{Seed: 3, MaxUsers: 1100, ClipCap: 1, Workload: "poisson", Arrivals: 20, Shards: shards}
	}
	one, oneCSV := runCSV(t, opts(1))
	if one.Sessions+one.Balked != 20 || len(one.Records) == 0 {
		t.Fatalf("degenerate baseline: %d sessions, %d balked, %d records", one.Sessions, one.Balked, len(one.Records))
	}
	if _, twoCSV := runCSV(t, opts(2)); !bytes.Equal(twoCSV, oneCSV) {
		t.Error("shards=2 records differ from shards=1")
	}
}

// TestShardOptionValidation is the whole table of Options.validate: one row
// per refusal, each an error that names the offending field and a world that
// was never built, then the rows that must be accepted. The name is from
// when the table had only the two Shards rows; sharding is still the larger
// part of the compatibility matrix: it is an open-loop engine, it is bounded
// by the template pool, and everything the open-loop engine runs shards —
// including the dynamics layer and every selection policy, which earlier
// revisions refused.
func TestShardOptionValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	open := Options{Seed: 1, MaxUsers: 16, ClipCap: 1, Workload: "poisson", Arrivals: 4}
	with := func(edit func(*Options)) Options {
		o := open
		edit(&o)
		return o
	}
	refused := []struct {
		name string
		opt  Options
		want []string // the field, and any number the message must carry
	}{
		{"negative MaxUsers", Options{MaxUsers: -1}, []string{"MaxUsers", "-1"}},
		{"negative ClipCap", Options{ClipCap: -1}, []string{"ClipCap", "-1"}},
		{"negative Arrivals", with(func(o *Options) { o.Arrivals = -1 }), []string{"Arrivals", "-1"}},
		{"negative DynamicsIntensity", Options{Dynamics: "outage", DynamicsIntensity: -1}, []string{"DynamicsIntensity", "-1"}},
		{"NaN DynamicsIntensity", Options{Dynamics: "lossburst", DynamicsIntensity: nan}, []string{"DynamicsIntensity", "NaN"}},
		{"infinite DynamicsIntensity", Options{Dynamics: "outage", DynamicsIntensity: inf}, []string{"DynamicsIntensity", "+Inf"}},
		{"negative WorkloadIntensity", with(func(o *Options) { o.WorkloadIntensity = -2 }), []string{"WorkloadIntensity", "-2"}},
		{"NaN WorkloadIntensity", with(func(o *Options) { o.WorkloadIntensity = nan }), []string{"WorkloadIntensity", "NaN"}},
		{"infinite WorkloadIntensity", with(func(o *Options) { o.WorkloadIntensity = inf }), []string{"WorkloadIntensity", "+Inf"}},
		{"negative CongestionScale", Options{CongestionScale: -1}, []string{"CongestionScale", "-1"}},
		{"NaN CongestionScale", Options{CongestionScale: nan}, []string{"CongestionScale", "NaN"}},
		{"infinite CongestionScale", Options{CongestionScale: math.Inf(-1)}, []string{"CongestionScale", "-Inf"}},
		{"NaN ServerUplinkKbps", Options{ServerUplinkKbps: nan}, []string{"ServerUplinkKbps", "NaN"}},
		{"infinite ServerUplinkKbps", Options{ServerUplinkKbps: inf}, []string{"ServerUplinkKbps", "+Inf"}},
		{"negative Shards", Options{Shards: -1}, []string{"Shards", "-1"}},
		{"Shards on the panel", Options{Shards: 2}, []string{"Shards", "Workload"}},
		{"Shards past MaxUsers", with(func(o *Options) { o.Shards = 17 }), []string{"Shards", "17", "16"}},
		{"Shards past the default pool", Options{Workload: "poisson", Shards: 20000}, []string{"Shards", "20000", "63"}},
		{"Selection on the panel", Options{Selection: "rtt"}, []string{"Selection", "rtt"}},
		{"WorkloadIntensity on the panel", Options{Workload: "panel", WorkloadIntensity: 2}, []string{"WorkloadIntensity", "2"}},
		{"Arrivals on the panel", Options{Arrivals: 5}, []string{"Arrivals", "5"}},
		{"WorkloadSeed on the panel", Options{WorkloadSeed: 9}, []string{"WorkloadSeed", "9"}},
	}
	for _, tc := range refused {
		w, err := NewWorld(tc.opt)
		if err == nil || w != nil {
			t.Errorf("%s: NewWorld built %v with error %v, want no world and an error", tc.name, w != nil, err)
			continue
		}
		for _, want := range tc.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, want)
			}
		}
	}

	accepted := []struct {
		name string
		opt  Options
	}{
		{"every zero value", Options{}},
		{"the panel by name", Options{Workload: "panel", MaxUsers: 4}},
		{"a negative uplink is fill's default", Options{MaxUsers: 4, ServerUplinkKbps: -1}},
		{"Shards equal to the pool", with(func(o *Options) { o.Shards = 16 })},
		{"Shards equal to the default pool", Options{Workload: "poisson", Shards: 63}},
		{"sharded dynamics", with(func(o *Options) { o.Shards = 2; o.Dynamics = "outage" })},
	}
	// Every selection policy shards, including the load-probing one (served
	// by gossip).
	for _, sel := range []string{"", "rtt", "roundrobin", "leastloaded"} {
		accepted = append(accepted, struct {
			name string
			opt  Options
		}{"sharded Selection " + sel, with(func(o *Options) { o.Shards = 2; o.Selection = sel })})
	}
	for _, tc := range accepted {
		if w, err := NewWorld(tc.opt); err != nil || w == nil {
			t.Errorf("%s: NewWorld refused %+v: %v", tc.name, tc.opt, err)
		}
	}
}

// TestResultSumsTheShards pins what the one Result literal reads off the
// factories' clocks: the events are the sum over the shards (every one of
// them fired inside a fabric window), the virtual duration their maximum,
// and both the duration and the session accounting are the same run for
// every shard count.
func TestResultSumsTheShards(t *testing.T) {
	var base *Result
	for _, shards := range []int{1, 2, 4} {
		res, err := Run(shardOpts(shards))
		if err != nil {
			t.Fatal(err)
		}
		if res.Events == 0 || res.Events != res.Windows.Fired {
			t.Errorf("shards=%d: Result.Events %d, the fabric's windows fired %d", shards, res.Events, res.Windows.Fired)
		}
		if base == nil {
			base = res
			continue
		}
		if res.SimDuration != base.SimDuration || res.Sessions != base.Sessions || res.Balked != base.Balked || res.Departed != base.Departed {
			t.Errorf("shards=%d ran %v with sessions %d/%d/%d, shards=1 %v with %d/%d/%d", shards,
				res.SimDuration, res.Sessions, res.Balked, res.Departed,
				base.SimDuration, base.Sessions, base.Balked, base.Departed)
		}
	}
}

// TestMergeShardRecordsTiebreak pins the merge's total order: records that
// collide on every observable sort key (end, start, user, clip) must come
// out in arrival-ordinal order regardless of the concatenation order they
// went in with. Concatenation order is per-shard collection order — the one
// thing that changes with the shard count — so without the ordinal tiebreak
// a duplicate-key collision would break byte-equivalence across N.
func TestMergeShardRecordsTiebreak(t *testing.T) {
	mk := func(ord int64) *trace.Record {
		return &trace.Record{
			User: "user-7", ClipURL: "rtsp://s1.example.com/clip-3.rm",
			StartSec: 12, EndSec: 40, Ordinal: ord,
		}
	}
	// A distinct-key record on each side of the duplicates, to check the
	// observable keys still dominate.
	early := &trace.Record{User: "user-1", ClipURL: "a", StartSec: 1, EndSec: 30, Ordinal: 9}
	late := &trace.Record{User: "user-1", ClipURL: "a", StartSec: 1, EndSec: 50, Ordinal: 0}
	dups := []*trace.Record{mk(3), mk(1 << 32), mk(2), mk(1<<32 | 1)}

	perms := [][]*trace.Record{
		{late, dups[0], dups[1], early, dups[2], dups[3]},
		{dups[3], dups[2], dups[1], dups[0], late, early},
		{dups[1], early, dups[3], late, dups[0], dups[2]},
	}
	var want []int64
	for pi, perm := range perms {
		merged := append([]*trace.Record(nil), perm...)
		mergeShardRecords(merged)
		if merged[0] != early || merged[len(merged)-1] != late {
			t.Fatalf("perm %d: observable keys no longer dominate the sort", pi)
		}
		var ords []int64
		for _, r := range merged[1 : len(merged)-1] {
			ords = append(ords, r.Ordinal)
		}
		for i := 1; i < len(ords); i++ {
			if ords[i-1] >= ords[i] {
				t.Fatalf("perm %d: duplicate-key records not in ordinal order: %v", pi, ords)
			}
		}
		if pi == 0 {
			want = ords
		} else if !equalInt64s(ords, want) {
			t.Fatalf("perm %d merged to %v, perm 0 to %v — merge order depends on input order", pi, ords, want)
		}
	}
}

func equalInt64s(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestApportionArrivalsProperty drives the largest-remainder apportionment
// across a sweep of budgets and partition shapes and checks its invariants:
// the shares sum exactly to the budget, and every share is within one of
// the exact proportional entitlement. A previous implementation wrapped a
// too-large shortfall around the remainder ranking with k%len — silently
// double-crediting cells instead of surfacing the broken arithmetic the
// shortfall would have implied; apportionArrivals now panics on any
// shortfall the floors cannot explain.
func TestApportionArrivalsProperty(t *testing.T) {
	shapes := [][]int{
		{8},
		{8, 8, 8},
		{1, 2, 3, 4, 5},
		{5, 1, 1, 1},
		{3, 3, 2},
		{1, 1, 1, 1, 1, 1, 1},
	}
	for _, shape := range shapes {
		pool := 0
		var memberSets [][]int
		for _, n := range shape {
			members := make([]int, n)
			for i := range members {
				members[i] = pool + i
			}
			memberSets = append(memberSets, members)
			pool += n
		}
		for _, total := range []int{0, 1, 7, 60, 61, 997, 5000} {
			out := apportionArrivals(total, memberSets, pool)
			sum := 0
			for i, got := range out {
				sum += got
				exact := float64(total) * float64(len(memberSets[i])) / float64(pool)
				if d := float64(got) - exact; d < -1 || d > 1 {
					t.Errorf("shape %v total %d: cell %d got %d, exact share %.3f (off by %.3f)",
						shape, total, i, got, exact, d)
				}
			}
			if sum != total {
				t.Errorf("shape %v total %d: shares sum to %d", shape, total, sum)
			}
		}
	}
}

// TestReplaceHostPanicsWithoutPort pins the replaceHost contract: a control
// address with no port is a study-layer bug, and silently returning the
// bare replacement host used to hide it (the session would then dial a
// portless address and hang in dial failure).
func TestReplaceHostPanicsWithoutPort(t *testing.T) {
	if got := replaceHost("a.example.com:554", "b.example.com"); got != "b.example.com:554" {
		t.Fatalf("replaceHost = %q, want b.example.com:554", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("replaceHost accepted a portless address")
		}
	}()
	replaceHost("a.example.com", "b.example.com")
}

// TestShardedWorkloadSpeedup is the parallelism payoff fence: a sharded
// open-loop run must finish faster (records per wall second, best of three)
// than the identical single-shard run — at least 2x at four shards on a
// host with four or more cores. On a host with two or three it measures two
// shards against a 1.15x bar, well below what the partition allows (the
// critical path of this world is ~60% of its events, a ceiling of ~1.65x)
// and well above what the fabric delivered while every window cost two
// scheduler wake-ups per shard (0.8-1.0x) — but there it only logs: the
// 2-vCPU build box reads 1.4-1.9x in 18 runs of 20 and 1.13x in the other
// two, when the hypervisor withholds the second core for the ten seconds
// the two-shard arm runs. Skipped on one core, where no speedup can be
// observed.
func TestShardedWorkloadSpeedup(t *testing.T) {
	shards, want, fail := 4, 2.0, t.Errorf
	switch cpus := runtime.NumCPU(); {
	case cpus < 2:
		t.Skipf("need >= 2 CPUs for a speedup measurement, have %d", cpus)
	case cpus < 4:
		shards, want, fail = 2, 1.15, t.Logf
	}
	if testing.Short() {
		t.Skip("speedup measurement is a long test")
	}
	opt := Options{Seed: 3, ClipCap: 2, Workload: "poisson", Arrivals: 1000, MaxUsers: 256}
	rate := func(shards int) (best float64, records int) {
		o := opt
		o.Shards = shards
		for try := 0; try < 3; try++ {
			start := time.Now()
			res, err := Run(o)
			if err != nil {
				t.Fatal(err)
			}
			records = len(res.Records)
			if r := float64(records) / time.Since(start).Seconds(); r > best {
				best = r
			}
		}
		return best, records
	}
	base, n1 := rate(1)
	par, nN := rate(shards)
	if n1 != nN {
		t.Fatalf("record counts diverged: shards=1 %d, shards=%d %d", n1, shards, nN)
	}
	speedup := par / base
	t.Logf("shards=1: %.0f rec/s; shards=%d: %.0f rec/s; speedup %.2fx (%d records)", base, shards, par, speedup, n1)
	if speedup < want {
		fail("shards=%d speedup %.2fx, want >= %.2fx", shards, speedup, want)
	}
}

// TestShardedWindowStats checks what only this layer can see of the window
// counters: a sharded Result carries the fabric's, they account for every
// event of the run, and the classic engine reports none. The counters
// themselves (exact, partition-invariant where the protocol is, inert when
// read every window) are pinned by netsim's TestFabricWindowStats.
func TestShardedWindowStats(t *testing.T) {
	for _, shards := range []int{0, 1, 2} {
		res, err := Run(shardOpts(shards))
		if err != nil {
			t.Fatal(err)
		}
		st := res.Windows
		switch {
		case shards == 0 && st != (netsim.WindowStats{}):
			t.Errorf("classic engine reports window counters: %+v", st)
		case shards > 0 && (st.Windows == 0 || st.Fired != res.Events):
			t.Errorf("shards=%d: %d windows fired %d events, the run %d", shards, st.Windows, st.Fired, res.Events)
		}
	}
}

var _ = fmt.Sprintf // keep fmt for debug scaffolding in this file
