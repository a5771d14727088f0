package trace

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
	"unsafe"

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

	sink = NewCSVSink(io.Discard) // decoding replaces whatever was there
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

// everyFieldSet returns a record with every field set to a value no other
// field holds, filled by reflection so a field added to Record later is set
// too.
func everyFieldSet() *Record {
	r := &Record{}
	v := reflect.ValueOf(r).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.String:
			f.SetString(v.Type().Field(i).Name)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i+1) << 33) // past 32 bits: no field may be narrowed
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.1)
		default:
			panic("trace.Record has a field of kind " + f.Kind().String())
		}
	}
	return r
}

// TestRecordSyncRoundTrip: a record with every field set, Ordinal included,
// walks into a snapshot and back unchanged, and two records decoded from one
// snapshot share the storage of every string they have in common.
func TestRecordSyncRoundTrip(t *testing.T) {
	src := everyFieldSet()
	twin := *src
	twin.Ordinal++
	var buf bytes.Buffer
	enc := snap.NewEncoder(&buf)
	col := &Collector{records: []*Record{src, &twin}}
	col.Sync(enc)
	if err := enc.Err(); err != nil {
		t.Fatal(err)
	}

	var got Collector
	dec := snap.NewDecoder(buf.Bytes())
	got.Sync(dec)
	if err := dec.Err(); err != nil || dec.Remaining() != 0 {
		t.Fatalf("decode: %v, %d bytes left over", err, dec.Remaining())
	}
	if len(got.records) != 2 || *got.records[0] != *src || *got.records[1] != twin {
		t.Fatalf("records restored as %+v, want %+v and %+v", got.records, src, &twin)
	}
	if a, b := got.records[0], got.records[1]; unsafe.StringData(a.ClipURL) != unsafe.StringData(b.ClipURL) ||
		unsafe.StringData(a.User) != unsafe.StringData(b.User) {
		t.Fatal("a string two records share was decoded twice")
	}
}
