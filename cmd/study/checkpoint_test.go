package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"realtracer/internal/core"
	"realtracer/internal/trace"
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
		{"resume with stream", setOf("resume", "stream"), "-stream"},
		{"checkpoint with stream", setOf("checkpoint", "warmup", "stream"), "-stream"},
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

// TestCheckpointResumeRoundTrip drives the command-level helpers end to
// end: a checkpointed run finishes with the same records as a
// straight-through run, and resuming the written file reproduces them
// byte-for-byte.
func TestCheckpointResumeRoundTrip(t *testing.T) {
	opts := core.StudyOptions{Seed: 11, MaxUsers: 4, ClipCap: 2}
	straight, err := core.RunStudy(opts)
	if err != nil {
		t.Fatal(err)
	}
	jsonBytes := func(res *core.StudyResult) []byte {
		var buf bytes.Buffer
		if err := trace.WriteJSON(&buf, res.Records); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := jsonBytes(straight)

	file := filepath.Join(t.TempDir(), "warm.snap")
	res, err := runWithCheckpoint(opts, file, straight.SimDuration/2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonBytes(res), want) {
		t.Error("checkpointed run's records differ from the straight-through run")
	}

	resumed, err := runResumed(file)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonBytes(resumed), want) {
		t.Error("resumed run's records differ from the straight-through run")
	}

	if _, err := runResumed(filepath.Join(t.TempDir(), "missing.snap")); err == nil {
		t.Error("resuming a missing file did not error")
	}
	if _, err := runWithCheckpoint(opts, file, 0); err == nil {
		t.Error("non-positive -warmup did not error")
	}

	// -resume takes a user path: a damaged file is one error line, never a
	// panic (which would print a stack trace) or a hang.
	good, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(t.TempDir(), "bad.snap")
	for name, data := range map[string][]byte{
		"truncated": good[:len(good)/3],
		"junk":      []byte("not a snapshot\n"),
		"empty":     nil,
	} {
		if err := os.WriteFile(bad, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := runResumed(bad); err == nil || strings.Contains(err.Error(), "\n") {
			t.Errorf("resuming a %s file: want a one-line error, got %v", name, err)
		}
	}
}
