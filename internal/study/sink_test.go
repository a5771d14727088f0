package study

import (
	"bytes"
	"testing"

	"realtracer/internal/figures"
	"realtracer/internal/trace"
)

// TestSetSinkCollectorMatchesRun pins the sink contract's compatibility
// half: a world whose sink was set to a caller's Collector must reproduce
// study.Run's records byte-for-byte, in the same order — and, the sink being
// a Collector, still fill Result.Records.
func TestSetSinkCollectorMatchesRun(t *testing.T) {
	opt := Options{Seed: 17, MaxUsers: 5, ClipCap: 4}
	batch, batchCSV := runCSV(t, opt)
	var col trace.Collector
	streamed := runWithSink(t, opt, &col)
	if len(streamed.Records) != len(col.Records()) {
		t.Fatalf("Result.Records holds %d records, the Collector sink %d", len(streamed.Records), len(col.Records()))
	}
	if streamed.Events != batch.Events || streamed.SimDuration != batch.SimDuration {
		t.Fatalf("run under a caller's sink diverged: events %d vs %d", streamed.Events, batch.Events)
	}
	if !bytes.Equal(batchCSV, csvBytes(t, col.Records())) {
		t.Fatal("records through a caller's Collector differ from the default run's")
	}
}

// TestSinkFuncRetainsNothing: with a counting sink no record survives the
// run — the Result must not hold them anywhere.
func TestSinkFuncRetainsNothing(t *testing.T) {
	n := 0
	res := runWithSink(t, Options{Seed: 17, MaxUsers: 3, ClipCap: 3},
		trace.SinkFunc(func(*trace.Record) { n++ }))
	if n == 0 {
		t.Fatal("sink observed no records")
	}
	if res.Records != nil {
		t.Fatal("Result retained records despite a non-collector sink")
	}
}

// TestSinkMayRetainRecords pins the ownership rule on trace.Sink: a record
// handed to a sink is the sink's to keep. An unsharded open-loop world
// reuses one tracer per template across sessions; fanning its records out to
// aggregates and a Collector must still hand the Collector one distinct
// record per clip, equal to what the default-collector run retains. (When
// tracers reused their Record storage under any non-collector world sink,
// this world's 92 records were 16 distinct pointers.)
func TestSinkMayRetainRecords(t *testing.T) {
	opt := Options{Seed: 3, MaxUsers: 16, ClipCap: 2, Workload: "poisson", Arrivals: 64}
	want, wantCSV := runCSV(t, opt)
	var col trace.Collector
	runWithSink(t, opt, trace.MultiSink{figures.NewAggregates(), &col})
	distinct := map[*trace.Record]bool{}
	for _, r := range col.Records() {
		distinct[r] = true
	}
	if len(distinct) != len(col.Records()) || len(distinct) != len(want.Records) {
		t.Fatalf("collector behind a MultiSink holds %d records, %d distinct; the default run retains %d",
			len(col.Records()), len(distinct), len(want.Records))
	}
	if !bytes.Equal(csvBytes(t, col.Records()), wantCSV) {
		t.Fatal("records retained behind a MultiSink differ from the default-collector run's")
	}
}

// runWithSink runs a fresh world for opt with its sink set to s.
func runWithSink(t testing.TB, opt Options, s trace.Sink) *Result {
	t.Helper()
	w, err := NewWorld(opt)
	if err != nil {
		t.Fatal(err)
	}
	w.SetSink(s)
	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func csvBytes(t testing.TB, recs []*trace.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWorldExpandsPopulation: MaxUsers beyond the paper's 63 builds a
// proportionally scaled population instead of truncating.
func TestWorldExpandsPopulation(t *testing.T) {
	w, err := NewWorld(Options{Seed: 1, MaxUsers: 80, ClipCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Users) != 80 {
		t.Fatalf("users=%d want 80", len(w.Users))
	}
	seen := map[string]bool{}
	for _, u := range w.Users {
		if seen[u.Name] {
			t.Fatalf("duplicate user %s in expanded population", u.Name)
		}
		seen[u.Name] = true
	}
	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) < 80 {
		t.Fatalf("expanded population produced only %d records", len(res.Records))
	}
}
