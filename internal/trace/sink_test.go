package trace

import (
	"bytes"
	"strings"
	"testing"

	"realtracer/internal/snap"
)

func sampleRecords() []*Record {
	return []*Record{
		{User: "a", Country: "US", Protocol: "TCP", MeasuredFPS: 10, MeasuredKbps: 100},
		{User: "b", Country: "UK", Protocol: "UDP", MeasuredFPS: 5, MeasuredKbps: 30, Rated: true, Rating: 7},
		{User: "a", Country: "US", Unavailable: true},
	}
}

func TestCollectorPreservesOrder(t *testing.T) {
	var c Collector
	recs := sampleRecords()
	for _, r := range recs {
		c.Observe(r)
	}
	got := c.Records()
	if len(got) != len(recs) {
		t.Fatalf("collected %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d out of order", i)
		}
	}
}

// TestCSVSinkMatchesWriteCSV: the streaming writer must emit byte-for-byte
// what the batch WriteCSV emits, so the -stream CLI path stays compatible
// with cmd/realdata.
func TestCSVSinkMatchesWriteCSV(t *testing.T) {
	recs := sampleRecords()
	var batch bytes.Buffer
	if err := WriteCSV(&batch, recs); err != nil {
		t.Fatal(err)
	}
	var streamed bytes.Buffer
	s := NewCSVSink(&streamed)
	for _, r := range recs {
		s.Observe(r)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.Count() != len(recs) {
		t.Fatalf("count=%d want %d", s.Count(), len(recs))
	}
	if !bytes.Equal(batch.Bytes(), streamed.Bytes()) {
		t.Fatalf("streamed CSV differs from batch CSV:\n%s\nvs\n%s", streamed.Bytes(), batch.Bytes())
	}
	back, err := ReadCSV(&streamed)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) || back[1].Rating != 7 {
		t.Fatal("streamed CSV did not round-trip")
	}
}

// TestCSVSinkEmptyStreamWritesHeader: a zero-record stream still produces
// the header-only file WriteCSV produces.
func TestCSVSinkEmptyStreamWritesHeader(t *testing.T) {
	var batch bytes.Buffer
	if err := WriteCSV(&batch, nil); err != nil {
		t.Fatal(err)
	}
	var streamed bytes.Buffer
	s := NewCSVSink(&streamed)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(batch.Bytes(), streamed.Bytes()) {
		t.Fatalf("empty stream CSV %q differs from batch %q", streamed.Bytes(), batch.Bytes())
	}
}

func TestMultiSinkFansOut(t *testing.T) {
	var a, b Collector
	m := MultiSink{&a, &b}
	for _, r := range sampleRecords() {
		m.Observe(r)
	}
	if len(a.Records()) != 3 || len(b.Records()) != 3 {
		t.Fatalf("fan-out lost records: %d / %d", len(a.Records()), len(b.Records()))
	}
}

func TestSinkFunc(t *testing.T) {
	n := 0
	s := SinkFunc(func(*Record) { n++ })
	s.Observe(&Record{})
	if n != 1 {
		t.Fatal("SinkFunc not invoked")
	}
}

// TestSyncSink: the sink section round-trips a Collector into a fresh one,
// refuses to encode a sink that cannot walk itself, and refuses to decode a
// section no registered kind wrote.
func TestSyncSink(t *testing.T) {
	var src Collector
	for _, r := range sampleRecords() {
		src.Observe(r)
	}
	var buf bytes.Buffer
	var sink Sink = &src
	enc := snap.NewEncoder(&buf)
	SyncSink(enc, &sink)
	if err := enc.Err(); err != nil {
		t.Fatal(err)
	}

	sink = SinkFunc(func(*Record) {}) // decoding replaces whatever was there
	dec := snap.NewDecoder(buf.Bytes())
	SyncSink(dec, &sink)
	got, ok := sink.(*Collector)
	if err := dec.Err(); err != nil || !ok || got == &src || len(got.Records()) != len(src.Records()) {
		t.Fatalf("decoded sink %T, err %v", sink, err)
	}
	if *got.Records()[1] != *src.Records()[1] {
		t.Fatalf("record 1 restored as %+v", got.Records()[1])
	}

	enc = snap.NewEncoder(&bytes.Buffer{})
	sink = MultiSink{&src}
	if SyncSink(enc, &sink); enc.Err() == nil || !strings.Contains(enc.Err().Error(), "trace.MultiSink cannot be snapshotted") {
		t.Fatalf("encoding a MultiSink: %v", enc.Err())
	}
	var unknown bytes.Buffer
	name := "nosuchsink"
	snap.NewEncoder(&unknown).Str(&name)
	dec = snap.NewDecoder(unknown.Bytes())
	if SyncSink(dec, &sink); dec.Err() == nil || !strings.Contains(dec.Err().Error(), "nosuchsink") {
		t.Fatalf("decoding an unregistered section: %v", dec.Err())
	}
}
