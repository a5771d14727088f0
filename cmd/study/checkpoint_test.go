package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"realtracer/internal/core"
	"realtracer/internal/study"
)

func setOf(names ...string) map[string]bool {
	m := map[string]bool{}
	for _, n := range names {
		m[n] = true
	}
	return m
}

// TestCheckpointFlagValidation pins the dependent-flag rule for the
// checkpoint cluster: a flag that positions or overrides another is a hard
// error without its governing flag.
func TestCheckpointFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		set  map[string]bool
		want string // substring of the error, "" = legal
	}{
		{"plain run", setOf("seed", "users"), ""},
		{"checkpoint with warmup", setOf("checkpoint", "warmup"), ""},
		{"checkpoint with warmup and workload", setOf("checkpoint", "warmup", "workload", "arrivals"), ""},
		{"resume alone", setOf("resume"), ""},
		{"resume with output flags", setOf("resume", "figures", "out"), ""},
		{"warmup without checkpoint", setOf("warmup"), "-checkpoint"},
		{"checkpoint without warmup", setOf("checkpoint"), "-warmup"},
		{"checkpoint with resume", setOf("checkpoint", "warmup", "resume"), "incompatible"},
		{"resume with seed", setOf("resume", "seed"), "snapshot's own options"},
		{"resume with workload", setOf("resume", "workload"), "snapshot's own options"},
		{"resume with shards", setOf("resume", "shards"), "snapshot's own options"},
		{"resume with sweep", setOf("resume", "sweep"), "-sweep"},
		{"checkpoint with shards", setOf("checkpoint", "warmup", "shards", "workload"), "sharded"},
		{"checkpoint with sweep", setOf("checkpoint", "warmup", "sweep"), "-sweep"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			msg := checkpointFlagError(tc.set)
			if tc.want == "" {
				if msg != "" {
					t.Fatalf("legal combination rejected: %s", msg)
				}
				return
			}
			if !strings.Contains(msg, tc.want) {
				t.Fatalf("want error containing %q, got %q", tc.want, msg)
			}
		})
	}
}

// TestModeFlagValidation pins the refusals that come before any world is
// built: an unknown -figure, and a flag that -sites, -timeline, -figure
// fig01 or -sweep would ignore. None of them builds the study world the
// other flags describe; -seed is the one world flag they all read, and
// -sweep reads -users and -clips too.
func TestModeFlagValidation(t *testing.T) {
	cases := []struct {
		name   string
		set    map[string]bool
		figure string
		want   string // substring of the error, "" = legal
	}{
		{"figure", setOf("figure", "users"), "fig05", ""},
		{"figure with its world", setOf("figure", "workload", "arrivals", "out", "checkpoint", "warmup"), "fig28", ""},
		{"unknown figure", setOf("figure", "workload", "users", "clips", "arrivals"), "fig99", `unknown figure "fig99"`},
		{"sites", setOf("sites", "seed"), "", ""},
		{"sites with users", setOf("sites", "users"), "", "-sites prints the geography of -seed, so it would ignore -users; drop it"},
		{"sites with workload", setOf("sites", "workload"), "", "ignore -workload"},
		{"sites with timeline", setOf("sites", "timeline"), "", "ignore -timeline"},
		{"timeline", setOf("timeline", "seed"), "", ""},
		{"timeline with json", setOf("timeline", "json"), "", "-timeline runs the Figure-1 session at -seed, so it would ignore -json"},
		{"timeline with out", setOf("timeline", "out"), "", "ignore -out"},
		{"timeline with figures", setOf("timeline", "figures"), "", "ignore -figures"},
		{"timeline with dynamics", setOf("timeline", "dynamics"), "", "ignore -dynamics"},
		{"timeline with checkpoint", setOf("timeline", "checkpoint", "warmup"), "", "ignore -checkpoint"},
		{"timeline with resume", setOf("timeline", "resume"), "", "ignore -resume"},
		{"fig01", setOf("figure", "seed"), "fig01", ""},
		{"fig01 with out", setOf("figure", "out", "dynamics"), "fig01", "-figure fig01 runs the Figure-1 session at -seed, so it would ignore -out"},
		{"fig01 with checkpoint", setOf("figure", "checkpoint", "warmup"), "fig01", "ignore -checkpoint"},
		{"fig01 with shards", setOf("figure", "workload", "shards"), "fig01", "ignore -workload"},
		{"sweep", setOf("sweep", "seed", "users", "clips", "parallel"), "", ""},
		{"sweep with figure", setOf("sweep", "figure"), "fig05", "-sweep runs its own scenarios over -seed, -users and -clips, so it would ignore -figure"},
		{"sweep with figures", setOf("sweep", "figures"), "", "ignore -figures"},
		{"sweep with json", setOf("sweep", "json"), "", "ignore -json"},
		{"sweep with dynamics", setOf("sweep", "dynamics", "intensity"), "", "ignore -dynamics"},
		{"sweep with workload", setOf("sweep", "workload", "selection"), "", "ignore -workload"},
		{"sweep with timeline", setOf("sweep", "timeline"), "", "-timeline runs the Figure-1 session at -seed, so it would ignore -sweep"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			msg := modeFlagError(tc.set, tc.figure)
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

// TestCheckpointResumeRoundTrip drives the command's one pipeline end to
// end, the way `-out a.csv`, `-checkpoint warm.snap -warmup DUR -out b.csv`
// and `-resume warm.snap -out c.csv` do: the checkpointed run and the
// resumed one must write the straight-through run's CSV byte for byte, and
// reach the same aggregates.
func TestCheckpointResumeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := study.Options{Seed: 11, MaxUsers: 4, ClipCap: 2}
	figs := func(r studyRun) []byte {
		t.Helper()
		agg, _, err := r.run()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		core.RenderAll(&buf, agg)
		return buf.Bytes()
	}
	csv := func(name string) []byte {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	_, straight, err := studyRun{opts: opts}.run()
	if err != nil {
		t.Fatal(err)
	}
	if straight.Records != nil {
		t.Error("a run that needs no record set retained one")
	}
	want := figs(studyRun{opts: opts, out: filepath.Join(dir, "a.csv")})
	if len(csv("a.csv")) == 0 {
		t.Fatal("straight-through run wrote an empty CSV")
	}

	file := filepath.Join(dir, "warm.snap")
	if got := figs(studyRun{opts: opts, out: filepath.Join(dir, "b.csv"), checkpoint: file, warmup: straight.SimDuration / 2}); !bytes.Equal(got, want) {
		t.Error("checkpointed run's figures differ from the straight-through run's")
	}
	if !bytes.Equal(csv("b.csv"), csv("a.csv")) {
		t.Error("checkpointed run's CSV differs from the straight-through run's")
	}
	if got := figs(studyRun{resume: file, out: filepath.Join(dir, "c.csv")}); !bytes.Equal(got, want) {
		t.Error("resumed run's figures differ from the straight-through run's")
	}
	if !bytes.Equal(csv("c.csv"), csv("a.csv")) {
		t.Error("resumed run's CSV differs from the straight-through run's")
	}

	if _, _, err := (studyRun{resume: filepath.Join(dir, "missing.snap")}).run(); err == nil {
		t.Error("resuming a missing file did not error")
	}
	if _, _, err := (studyRun{opts: opts, checkpoint: file}).run(); err == nil {
		t.Error("non-positive -warmup did not error")
	}
	// One output path: a write, flush or close that fails is reported once,
	// as "write FILE: ...", instead of "wrote N records" and exit 0.
	closed, err := os.Create(filepath.Join(dir, "closed.csv"))
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()
	if err := closeOutput(closed, nil); err == nil || !strings.HasPrefix(err.Error(), "write "+closed.Name()+": ") {
		t.Errorf("failed close: got %v", err)
	}
	if _, _, err := (studyRun{opts: opts, jsonOut: filepath.Join(dir, "no-such-dir", "t.json")}).run(); err == nil || !strings.Contains(err.Error(), "t.json") {
		t.Errorf("unwritable -json file: got %v", err)
	}

	// -resume takes a user path: a damaged file is one error line, never a
	// panic (which would print a stack trace) or a hang.
	good, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.snap")
	for name, data := range map[string][]byte{
		"truncated": good[:len(good)/3],
		"junk":      []byte("not a snapshot\n"),
		"empty":     nil,
	} {
		if err := os.WriteFile(bad, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := (studyRun{resume: bad}).run(); err == nil || strings.Contains(err.Error(), "\n") {
			t.Errorf("resuming a %s file: want a one-line error, got %v", name, err)
		}
	}
}
