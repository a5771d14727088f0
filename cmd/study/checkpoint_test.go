package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"realtracer/internal/figures"
)

// TestCheckpointResumeRoundTrip drives the command's one pipeline end to
// end, the way `-out a.csv`, `-checkpoint warm.snap -warmup DUR -out b.csv`
// and `-resume warm.snap -out c.csv` do: the checkpointed run and the
// resumed one must write the straight-through run's CSV byte for byte, and
// reach the same aggregates.
func TestCheckpointResumeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	world := options{seed: 11, users: 4, clips: 2}
	with := func(set func(*options)) *options {
		o := world
		set(&o)
		return &o
	}
	figs := func(r *options) []byte {
		t.Helper()
		agg, _, err := r.run()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, g := range figures.All() {
			g.Agg(agg).Render(&buf)
		}
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

	_, straight, err := (&world).run()
	if err != nil {
		t.Fatal(err)
	}
	if straight.Records != nil {
		t.Error("a run that needs no record set retained one")
	}
	want := figs(with(func(o *options) { o.out = filepath.Join(dir, "a.csv") }))
	if len(csv("a.csv")) == 0 {
		t.Fatal("straight-through run wrote an empty CSV")
	}

	file := filepath.Join(dir, "warm.snap")
	if got := figs(with(func(o *options) {
		o.out, o.checkpoint, o.warmup = filepath.Join(dir, "b.csv"), file, straight.SimDuration/2
	})); !bytes.Equal(got, want) {
		t.Error("checkpointed run's figures differ from the straight-through run's")
	}
	if !bytes.Equal(csv("b.csv"), csv("a.csv")) {
		t.Error("checkpointed run's CSV differs from the straight-through run's")
	}
	if got := figs(&options{resume: file, out: filepath.Join(dir, "c.csv")}); !bytes.Equal(got, want) {
		t.Error("resumed run's figures differ from the straight-through run's")
	}
	if !bytes.Equal(csv("c.csv"), csv("a.csv")) {
		t.Error("resumed run's CSV differs from the straight-through run's")
	}

	if _, _, err := (&options{resume: filepath.Join(dir, "missing.snap")}).run(); err == nil {
		t.Error("resuming a missing file did not error")
	}
	if _, _, err := with(func(o *options) { o.checkpoint = file }).run(); err == nil {
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
	if _, _, err := with(func(o *options) { o.jsonOut = filepath.Join(dir, "no-such-dir", "t.json") }).run(); err == nil || !strings.Contains(err.Error(), "t.json") {
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
		if _, _, err := (&options{resume: bad}).run(); err == nil || strings.Contains(err.Error(), "\n") {
			t.Errorf("resuming a %s file: want a one-line error, got %v", name, err)
		}
	}
}
