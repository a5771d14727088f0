package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"realtracer/internal/core"
)

// TestCheckpointFlagValidation pins the dependent-flag rule for the
// checkpoint cluster: a flag that positions or overrides another is a hard
// error without its governing flag.
func TestCheckpointFlagValidation(t *testing.T) {
	setOf := func(names ...string) map[string]bool {
		m := map[string]bool{}
		for _, n := range names {
			m[n] = true
		}
		return m
	}
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

// TestCheckpointResumeRoundTrip drives the command's one pipeline end to
// end, the way `-out a.csv`, `-checkpoint warm.snap -warmup DUR -out b.csv`
// and `-resume warm.snap -out c.csv` do: the checkpointed run and the
// resumed one must write the straight-through run's CSV byte for byte, and
// reach the same aggregates.
func TestCheckpointResumeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := core.StudyOptions{Seed: 11, MaxUsers: 4, ClipCap: 2}
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
