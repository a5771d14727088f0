package figures

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"realtracer/internal/study"
	"realtracer/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden figure snapshot")

// goldenOptions is the reduced seed study the golden snapshot pins: big
// enough to populate every grouping the figures split on, small enough to
// run in a couple of seconds.
func goldenOptions() study.Options {
	return study.Options{Seed: 1, MaxUsers: 16, ClipCap: 10}
}

// renderAll renders every record-driven figure, in paper order, to one
// buffer — the exact text a study consumer sees.
func renderAll(recs []*trace.Record) []byte {
	return renderFromAgg(Aggregate(recs))
}

// TestGoldenFigures runs the reduced seed study and diffs every rendered
// figure against the committed snapshot. The snapshot was generated from the
// pre-aggregates multi-pass generators, so a green run proves the streaming
// refactor is output-preserving. Regenerate deliberately with:
//
//	go test ./internal/figures -run TestGoldenFigures -update
func TestGoldenFigures(t *testing.T) {
	res, err := study.Run(goldenOptions())
	if err != nil {
		t.Fatal(err)
	}
	got := renderAll(res.Records)
	path := filepath.Join("testdata", "golden_figures.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d bytes to %s", len(got), path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden snapshot (run with -update to create): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines := bytes.Split(got, []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	n := len(gotLines)
	if len(wantLines) < n {
		n = len(wantLines)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("figure output diverged from golden at line %d:\n got: %s\nwant: %s",
				i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("figure output length changed: got %d lines, golden %d lines", len(gotLines), len(wantLines))
}

// TestGoldenStable guards the snapshot itself: two renders of the same study
// must be byte-identical, or the golden diff would be flaky (this is what
// the deterministic tie-break in barFromCounter buys).
func TestGoldenStable(t *testing.T) {
	res, err := study.Run(goldenOptions())
	if err != nil {
		t.Fatal(err)
	}
	a := renderAll(res.Records)
	b := renderAll(res.Records)
	if !bytes.Equal(a, b) {
		t.Fatal("two renders of the same records differ")
	}
	// And across a re-run of the study itself.
	res2, err := study.Run(goldenOptions())
	if err != nil {
		t.Fatal(err)
	}
	if c := renderAll(res2.Records); !bytes.Equal(a, c) {
		t.Fatal("re-running the golden study changed the rendered figures")
	}
}
