package figures

import (
	"bytes"
	"math/rand"
	"testing"

	"realtracer/internal/snap"
	"realtracer/internal/trace"
)

// renderFigures renders every figure built from agg into one buffer.
func renderFromAgg(agg *Aggregates) []byte {
	var buf bytes.Buffer
	for _, g := range All() {
		g.Agg(agg).Render(&buf)
	}
	return buf.Bytes()
}

// TestStreamedAggregatesMatchBatch: observing records one at a time through
// the Sink interface must produce exactly the figures the batch slice path
// produces.
func TestStreamedAggregatesMatchBatch(t *testing.T) {
	recs := synthetic()
	streamed := NewAggregates()
	var sink trace.Sink = streamed // prove Aggregates satisfies trace.Sink
	for _, r := range recs {
		sink.Observe(r)
	}
	batch := renderFromAgg(Aggregate(recs))
	if got := renderFromAgg(streamed); !bytes.Equal(got, batch) {
		t.Fatal("streamed aggregates render differently from batch aggregates")
	}
}

// TestAggregatesMergePartitions: partitioning the stream into partial
// aggregates and merging them in input order must reproduce the
// single-aggregate result — the campaign's per-scenario merge contract.
func TestAggregatesMergePartitions(t *testing.T) {
	recs := synthetic()
	whole := Aggregate(recs)
	want := renderFromAgg(whole)
	for _, parts := range []int{2, 3, 7} {
		partials := make([]*Aggregates, parts)
		for i := range partials {
			partials[i] = NewAggregates()
		}
		for i, r := range recs {
			partials[i%parts].Observe(r)
		}
		merged := NewAggregates()
		for _, p := range partials {
			merged.Merge(p)
		}
		if merged.Total() != whole.Total() || merged.Played() != whole.Played() ||
			merged.Rated() != whole.Rated() || merged.Users() != whole.Users() {
			t.Fatalf("parts=%d: headline counts differ after merge", parts)
		}
		if got := renderFromAgg(merged); !bytes.Equal(got, want) {
			t.Fatalf("parts=%d: merged aggregates render differently", parts)
		}
	}
}

func TestAggregatesCounts(t *testing.T) {
	a := NewAggregates()
	a.Observe(&trace.Record{User: "u1", Country: "US", State: "MA", Protocol: "TCP", MeasuredFPS: 10})
	a.Observe(&trace.Record{User: "u1", Country: "US", State: "MA", Unavailable: true, Server: "s"})
	a.Observe(&trace.Record{User: "u2", Country: "UK", Protocol: "UDP", MeasuredFPS: 5,
		MeasuredKbps: 300, Rated: true, Rating: 8, Access: "T1/LAN"})
	// A failed session's rating, had one been recorded, must not count.
	a.Observe(&trace.Record{User: "u3", Country: "UK", Failed: true, Rated: true, Rating: 9})
	if a.Total() != 4 || a.Played() != 2 || a.Rated() != 1 ||
		a.Unavailable() != 1 || a.Failed() != 1 || a.Users() != 3 {
		t.Fatalf("counts wrong: total=%d played=%d rated=%d unavail=%d failed=%d users=%d",
			a.Total(), a.Played(), a.Rated(), a.Unavailable(), a.Failed(), a.Users())
	}
	if a.ProtocolPlayed("TCP") != 1 || a.ProtocolPlayed("UDP") != 1 {
		t.Fatal("protocol tallies wrong")
	}
	if a.FrameRate().N() != 2 || a.Jitter().N() != 2 || a.Rating().N() != 1 {
		t.Fatal("distribution counts wrong")
	}
}

// TestAggregatesPopulationScale exercises the binned sketch path: far more
// records than the exact cap, where the old slice-based generators would
// have held every record. The figures must still come out self-consistent.
func TestAggregatesPopulationScale(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := NewAggregates()
	const n = 30000
	for i := 0; i < n; i++ {
		r := &trace.Record{
			User:         "u" + string(rune('A'+i%700)),
			Country:      "US",
			State:        "MA",
			Region:       "US/Canada",
			ServerRegion: "Europe",
			Server:       "srv",
			Access:       AccessOrder[i%3],
			PCClass:      "Pentium III / 256-512MB",
			Protocol:     ProtocolOrder[i%2],
			MeasuredFPS:  rng.Float64() * 30,
			MeasuredKbps: rng.Float64() * 500,
			JitterMs:     rng.Float64() * 600,
		}
		if i%9 == 0 {
			r.Rated, r.Rating = true, float64(rng.Intn(11))
		}
		a.Observe(r)
	}
	if a.FrameRate().S.IsExact() {
		t.Fatal("30k samples should have promoted the sketch")
	}
	// Median of uniform(0,30) must be close to 15 even on the binned path.
	if med := a.FrameRate().Quantile(0.5); med < 14 || med > 16 {
		t.Fatalf("binned median fps %v implausible for uniform(0,30)", med)
	}
	var buf bytes.Buffer
	for _, g := range All() {
		fig := g.Agg(a)
		if len(fig.Series) == 0 {
			t.Fatalf("%s: no series at population scale", g.ID)
		}
		fig.Render(&buf)
	}
	if buf.Len() == 0 {
		t.Fatal("render produced nothing")
	}
}

func TestAggregatesEmpty(t *testing.T) {
	a := NewAggregates()
	for _, g := range All() {
		var buf bytes.Buffer
		g.Agg(a).Render(&buf) // must not panic
	}
	b := NewAggregates()
	a.Merge(b) // merging empties must not panic
	if a.Total() != 0 {
		t.Fatal("empty merge produced records")
	}
}

// TestAggregatesSyncRoundTrip: aggregates restored mid-stream from their
// snapshot walk and fed the rest of the records must render exactly what an
// uninterrupted build renders, and must re-encode to the bytes they were
// restored from — the property a world checkpoint relies on when its sink is
// an Aggregates.
func TestAggregatesSyncRoundTrip(t *testing.T) {
	recs := synthetic()
	want := renderFromAgg(Aggregate(recs))
	for _, cut := range []int{0, 1, len(recs) / 2, len(recs)} {
		var snapBytes bytes.Buffer
		var sink trace.Sink = Aggregate(recs[:cut])
		trace.SyncSink(snap.NewEncoder(&snapBytes), &sink)

		dec := snap.NewDecoder(snapBytes.Bytes())
		trace.SyncSink(dec, &sink) // replaces sink with what the section rebuilds
		if err := dec.Err(); err != nil || dec.Remaining() != 0 {
			t.Fatalf("cut %d: decode: %v (%d bytes left)", cut, err, dec.Remaining())
		}
		restored := sink.(*Aggregates)
		var again bytes.Buffer
		restored.Sync(snap.NewEncoder(&again))
		if !bytes.HasSuffix(snapBytes.Bytes(), again.Bytes()) {
			t.Fatalf("cut %d: restored aggregates do not re-encode to their snapshot", cut)
		}
		for _, r := range recs[cut:] {
			restored.Observe(r)
		}
		if !bytes.Equal(renderFromAgg(restored), want) {
			t.Fatalf("cut %d: figures after restore differ from the uninterrupted build's", cut)
		}
	}
}
