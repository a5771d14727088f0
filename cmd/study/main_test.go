package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// sample gives every flag the values the tests parse it with: a flag named
// alone takes the first, and the rest select other modes.
var sample = map[string][]string{
	"seed": {"2"}, "users": {"4"}, "clips": {"1"}, "out": {"t.csv"}, "json": {"t.json"},
	"figure": {"fig05", "fig01"}, "figures": {"true"}, "sites": {"true"},
	"sweep": {"seeds", "list"}, "parallel": {"4"},
	"dynamics": {"outage", "list"}, "intensity": {"2"},
	"workload": {"poisson", "list"}, "load": {"2"}, "arrivals": {"64"},
	"selection": {"rtt", "list"}, "shards": {"2"},
	"checkpoint": {"w.snap"}, "warmup": {"10m"}, "resume": {"w.snap"},
	"cpuprofile": {"cpu.out"}, "memprofile": {"mem.out"},
}

// verdict parses flags the way main does, each NAME or NAME=VALUE (NAME
// alone takes its first sample value, or true when it has none), and
// returns the error parse gives, "" when the command would run.
func verdict(flags ...string) string {
	var args []string
	for _, f := range flags {
		name, value, ok := strings.Cut(f, "=")
		if !ok {
			value = "true"
			if v := sample[name]; len(v) > 0 {
				value = v[0]
			}
		}
		args = append(args, "-"+name+"="+value)
	}
	fs := flag.NewFlagSet("study", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if _, err := parse(fs, args); err != nil {
		return err.Error()
	}
	return ""
}

type flagCase struct {
	name  string
	flags string // NAME or NAME=VALUE, space-separated
	want  string // substring of the one-line error, "" = legal
}

func runFlagCases(t *testing.T, cases []flagCase) {
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			msg := verdict(strings.Fields(tc.flags)...)
			if tc.want == "" {
				if msg != "" {
					t.Fatalf("legal combination rejected: %s", msg)
				}
				return
			}
			if !strings.Contains(msg, tc.want) || strings.Contains(msg, "\n") {
				t.Fatalf("want one line containing %q, got %q", tc.want, msg)
			}
		})
	}
}

// TestCheckpointFlagValidation pins the dependent-flag rule for the
// checkpoint cluster: a flag that positions or overrides another is a hard
// error without its governing flag.
func TestCheckpointFlagValidation(t *testing.T) {
	runFlagCases(t, []flagCase{
		{"plain run", "seed users", ""},
		{"checkpoint with warmup", "checkpoint warmup", ""},
		{"checkpoint with warmup and workload", "checkpoint warmup workload arrivals", ""},
		{"resume alone", "resume", ""},
		{"resume with output flags", "resume figures out", ""},
		{"warmup without checkpoint", "warmup", "study: -warmup positions the snapshot instant of a checkpoint run; give -checkpoint FILE"},
		{"checkpoint without warmup", "checkpoint", "-warmup"},
		{"checkpoint with resume", "checkpoint warmup resume", "-resume replays the snapshot's own options, so it would ignore -checkpoint"},
		{"resume with seed", "resume seed", "snapshot's own options"},
		{"resume with workload", "resume workload", "snapshot's own options"},
		{"resume with shards", "resume shards", "snapshot's own options"},
		{"resume with sweep", "resume sweep", "-sweep"},
		{"checkpoint with shards", "checkpoint warmup shards workload", "sharded"},
		{"checkpoint with sweep", "checkpoint warmup sweep", "-sweep"},
	})
}

// TestModeFlagValidation pins the refusals of the mode table: an unknown
// -figure, a dependent flag without its governing flag, and a flag the
// selected mode would ignore. -sites, -figure fig01 and -sweep do not build
// the study world the other flags describe: -seed is the one world flag
// they read, and -sweep reads -users and -clips too. A list request reads
// nothing else. -timeline, once a second name for -figure fig01, is no flag.
func TestModeFlagValidation(t *testing.T) {
	const gone = "flag provided but not defined: -timeline"
	runFlagCases(t, []flagCase{
		{"figure", "figure users", ""},
		{"figure with its world", "figure=fig28 workload arrivals out checkpoint warmup", ""},
		{"unknown figure", "figure=fig99 workload users clips arrivals", `unknown figure "fig99"`},
		{"sites", "sites seed", ""},
		{"sites with users", "sites users", "study: -sites prints the geography of -seed, so it would ignore -users; drop it"},
		{"sites with workload", "sites workload", "ignore -workload"},
		{"sites with parallel", "sites parallel", "ignore -parallel"},
		{"sites with timeline", "sites timeline", gone},
		{"timeline", "timeline seed", gone},
		{"timeline with json", "timeline json", gone},
		{"timeline with out", "timeline out", gone},
		{"timeline with figures", "timeline figures", gone},
		{"timeline with dynamics", "timeline dynamics", gone},
		{"timeline with checkpoint", "timeline checkpoint warmup", gone},
		{"timeline with resume", "timeline resume", gone},
		{"fig01", "figure=fig01 seed", ""},
		{"fig01 with out", "figure=fig01 out", "-figure fig01 runs the Figure-1 session at -seed, so it would ignore -out"},
		{"fig01 with json", "figure=fig01 json", "ignore -json"},
		{"fig01 with figures", "figure=fig01 figures", "ignore -figures"},
		{"fig01 with dynamics", "figure=fig01 dynamics", "ignore -dynamics"},
		{"fig01 with checkpoint", "figure=fig01 checkpoint warmup", "ignore -checkpoint"},
		{"fig01 with resume", "figure=fig01 resume", "ignore -resume"},
		{"fig01 with shards", "figure=fig01 workload shards", "ignore -shards"},
		{"sweep", "sweep seed users clips parallel", ""},
		{"sweep with figure", "sweep figure", "-sweep runs its own scenarios over -seed, -users and -clips, so it would ignore -figure"},
		{"sweep with figures", "sweep figures", "ignore -figures"},
		{"sweep with json", "sweep json", "ignore -json"},
		{"sweep with dynamics", "sweep dynamics intensity", "ignore -dynamics"},
		{"sweep with workload", "sweep workload", "ignore -workload"},
		{"sweep with timeline", "sweep timeline", gone},
		{"sweep list", "sweep=list", ""},
		{"unknown sweep", "sweep=bogus users", `study: unknown sweep "bogus" (try -sweep list)`},
		{"sweep list with users", "sweep=list users", "-sweep list prints the registered sweeps, so it would ignore -users"},
		{"parallel alone", "parallel", "study: the study run, so it would ignore -parallel; drop it"},
		{"dynamics list", "dynamics=list", ""},
		{"dynamics list with out", "dynamics=list out", "-dynamics list prints the dynamics catalog, so it would ignore -out"},
		{"dynamics list with intensity", "dynamics=list intensity", "ignore -intensity"},
		{"workload list with arrivals", "workload=list arrivals", "ignore -arrivals"},
		{"selection list", "selection=list", ""},
		{"selection list with shards and load", "selection=list shards load", "-selection list prints the selection policies, so it would ignore -load"},
		{"intensity alone", "intensity", "study: -intensity scales a dynamics profile; give -dynamics NAME"},
		{"selection alone", "selection", "study: -selection configures the open-loop engine; give -workload NAME"},
		{"shards alone", "shards", "-shards configures the open-loop engine"},
		{"profiles beside any mode", "sites cpuprofile memprofile", ""},
	})
}

// TestEveryFlagPairHasOneVerdict runs every pair of the command's flags,
// each at every sample value, through parse in both orders: the verdict
// does not depend on the order, and a refusal is one `study: …` line naming
// one of the two flags. Every flag has a sample, every flag the table names
// is defined and every defined flag is read by some mode, so a flag added
// without a row, or a row naming no flag, fails here.
func TestEveryFlagPairHasOneVerdict(t *testing.T) {
	fs := flag.NewFlagSet("study", flag.ContinueOnError)
	if _, err := parse(fs, nil); err != nil {
		t.Fatal(err)
	}
	read := map[string]bool{} // every flag the table names; true if a mode reads it
	for _, m := range modes {
		for _, f := range strings.Fields(m.key + " " + m.reads + " " + everyMode) {
			name, _, _ := strings.Cut(f, "=")
			read[name] = true
		}
	}
	for dep, need := range needs {
		gov, _, _ := strings.Cut(need[0], " ")
		for _, f := range []string{dep, gov} {
			read[f] = read[f] // named, so it must be defined
		}
	}
	var flags []string
	defined := 0
	fs.VisitAll(func(f *flag.Flag) {
		defined++
		if !read[f.Name] {
			t.Errorf("no mode reads -%s", f.Name)
		}
		delete(read, f.Name)
		if len(sample[f.Name]) == 0 {
			t.Errorf("-%s has no sample value", f.Name)
		}
		for _, v := range sample[f.Name] {
			flags = append(flags, f.Name+"="+v)
		}
	})
	for name := range read {
		t.Errorf("the table names -%s, which the command does not define", name)
	}
	names := func(msg, f string) bool {
		f, _, _ = strings.Cut(f, "=")
		return strings.Contains(msg, "ignore -"+f+"; drop it") || strings.HasPrefix(msg, "study: -"+f+" ")
	}
	pairs, legal := 0, 0
	for i, a := range flags {
		for _, b := range flags[i+1:] {
			if strings.SplitN(a, "=", 2)[0] == strings.SplitN(b, "=", 2)[0] {
				continue
			}
			pairs++
			ab, ba := verdict(a, b), verdict(b, a)
			switch {
			case ab != ba:
				t.Errorf("-%s -%s: %q, but the other way round %q", a, b, ab, ba)
			case ab == "":
				legal++
			case !strings.HasPrefix(ab, "study: ") || strings.Contains(ab, "\n") || !names(ab, a) && !names(ab, b):
				t.Errorf("-%s -%s: want one study: line naming one of them, got %q", a, b, ab)
			}
		}
	}
	t.Logf("%d flags, %d pairs, %d legal", defined, pairs, legal)
}
