package campaign

import (
	"bytes"
	"runtime"
	"testing"

	"realtracer/internal/study"
)

// dynamicsFamilies are the fault-injection sweep registry entries added
// with the network-dynamics layer.
var dynamicsFamilies = []string{"outage", "flashcrowd", "lossburst", "diurnal"}

// TestDynamicsSweepsRegistered pins the registry surface: every family
// resolves by name and includes a dynamics-off control arm.
func TestDynamicsSweepsRegistered(t *testing.T) {
	catalog := map[string]bool{}
	for _, p := range study.DynamicsProfiles() {
		catalog[p.Name] = true
	}
	for _, name := range dynamicsFamilies {
		sw, ok := SweepByName(name)
		if !ok {
			t.Fatalf("sweep %q not registered", name)
		}
		scs := sw.Scenarios(ReducedBase(0))
		if len(scs) < 2 {
			t.Fatalf("sweep %q has %d scenarios; want control + levels", name, len(scs))
		}
		if scs[0].Options.Dynamics != "" {
			t.Fatalf("sweep %q first scenario %q is not the dynamics-off control", name, scs[0].Name)
		}
		for _, sc := range scs[1:] {
			if sc.Options.Dynamics != name {
				t.Fatalf("sweep %q scenario %q uses profile %q", name, sc.Name, sc.Options.Dynamics)
			}
			if !catalog[sc.Options.Dynamics] {
				t.Fatalf("sweep %q references unknown dynamics profile %q", name, sc.Options.Dynamics)
			}
		}
	}
}

// TestDynamicsSweepsDeterministicAcrossWorkers extends the campaign
// determinism guarantee to every fault-injection family: per-scenario
// records — including the Gilbert–Elliott draws inside the dynamics layer
// — must be byte-identical at workers=1 and at a full pool, because the
// dynamics seed derives from the scenario name, never from the worker.
func TestDynamicsSweepsDeterministicAcrossWorkers(t *testing.T) {
	base := study.Options{MaxUsers: 3, ClipCap: 2}
	var scs []Scenario
	for _, name := range dynamicsFamilies {
		sw, _ := SweepByName(name)
		scs = append(scs, sw.Scenarios(base)...)
	}

	serialCfg := Config{BaseSeed: 9, Workers: 1}
	parallelCfg := Config{BaseSeed: 9, Workers: runtime.NumCPU()}
	if parallelCfg.Workers < 4 {
		parallelCfg.Workers = 4
	}
	serial := Run(scs, serialCfg)
	parallel := Run(scs, parallelCfg)
	if err := serial.Err(); err != nil {
		t.Fatal(err)
	}
	if err := parallel.Err(); err != nil {
		t.Fatal(err)
	}

	sawDynamicsRecord := false
	for i := range scs {
		s, p := serial.Results[i], parallel.Results[i]
		if s.Scenario.Options.DynamicsSeed != p.Scenario.Options.DynamicsSeed {
			t.Fatalf("scenario %s: dynamics seeds differ: %d vs %d",
				scs[i].Name, s.Scenario.Options.DynamicsSeed, p.Scenario.Options.DynamicsSeed)
		}
		if scs[i].Options.Dynamics != "" && s.Scenario.Options.DynamicsSeed == 0 {
			t.Fatalf("scenario %s: dynamics seed never derived", scs[i].Name)
		}
		if !bytes.Equal(csvBytes(t, s.Result), csvBytes(t, p.Result)) {
			t.Fatalf("scenario %s: records differ between workers=1 and workers=%d",
				scs[i].Name, parallelCfg.Workers)
		}
		for _, rec := range s.Result.Records {
			if rec.Dynamics != "" {
				sawDynamicsRecord = true
			}
		}
	}
	if !sawDynamicsRecord {
		t.Fatal("no record carried a dynamics condition label")
	}
}
