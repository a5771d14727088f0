package trace

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"

	"realtracer/internal/snap"
)

// Sink consumes per-clip records as they are produced: the sink is the only
// way a record leaves a world, so a study's memory footprint is whatever its
// sink keeps (every record, aggregate state, a file buffer).
//
// Ownership: a record handed to Observe is the sink's to keep. The producer
// allocates one Record per clip and never touches it again, so a sink may
// retain the pointer, read it later, or drop it.
//
// Observe is called from the single simulation goroutine of one world, in
// deterministic record order; a sink shared across worlds must be
// synchronized by the caller (the campaign engine avoids this by giving
// each scenario its own sink and merging afterwards).
type Sink interface {
	Observe(*Record)
}

// SnapSink is a Sink that can ride in a world checkpoint: it names its
// snapshot section and walks its own state under it (one walk, both
// directions — see internal/snap).
type SnapSink interface {
	Sink
	SnapSection() string
	Sync(c *snap.Codec)
}

// snapSinks maps a snapshot's sink-section tag to the constructor of the
// sink kind that wrote it. Registration happens in package init functions,
// so the map is read-only by the time any world is resumed.
var snapSinks = map[string]func() SnapSink{}

// RegisterSnapSink declares the sink kind a resumed world rebuilds when its
// snapshot's sink section is tagged mk().SnapSection(). Registering the same
// section twice panics.
func RegisterSnapSink(mk func() SnapSink) {
	section := mk().SnapSection()
	if _, ok := snapSinks[section]; ok {
		panic(fmt.Sprintf("trace: sink section %q already registered", section))
	}
	snapSinks[section] = mk
}

func init() { RegisterSnapSink(func() SnapSink { return &Collector{} }) }

// SyncSink walks a world's sink section: the section tag, then the sink's
// own walk. Encoding fails, naming the sink's type, when it cannot walk
// itself; decoding replaces *s with a fresh sink of the kind the tag names
// and restores it.
func SyncSink(c *snap.Codec, s *Sink) {
	ss, ok := (*s).(SnapSink)
	var section string
	if !c.Reading() {
		if !ok {
			c.Fail(fmt.Errorf("trace: sink of type %T cannot be snapshotted", *s))
			return
		}
		section = ss.SnapSection()
	}
	c.Str(&section)
	if c.Err() != nil {
		return
	}
	if c.Reading() {
		mk := snapSinks[section]
		if mk == nil {
			c.Fail(fmt.Errorf("trace: snapshot section %q is not a registered sink kind (snapshot and reader disagree on layout)", section))
			return
		}
		ss = mk()
		*s = ss
	}
	ss.Sync(c)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(*Record)

// Observe implements Sink.
func (f SinkFunc) Observe(r *Record) { f(r) }

// Collector is the retain-everything Sink: it preserves the classic
// records-slice API for small studies and tests.
type Collector struct {
	records []*Record
}

// Observe implements Sink.
func (c *Collector) Observe(r *Record) { c.records = append(c.records, r) }

// Records returns the collected records in observation order.
func (c *Collector) Records() []*Record { return c.records }

// SnapSection implements SnapSink.
func (c *Collector) SnapSection() string { return "records" }

// Sync implements SnapSink: the retained records as one JSON byte string.
func (c *Collector) Sync(sc *snap.Codec) {
	var buf bytes.Buffer
	if !sc.Reading() {
		sc.Fail(WriteJSON(&buf, c.records))
	}
	b := buf.Bytes()
	sc.Bytes(&b)
	if !sc.Reading() || sc.Err() != nil {
		return
	}
	recs, err := ReadJSON(bytes.NewReader(b))
	if err != nil {
		sc.Fail(fmt.Errorf("trace: checkpoint records: %w", err))
		return
	}
	c.records = recs
}

// MultiSink fans every record out to each sink in order.
type MultiSink []Sink

// Observe implements Sink.
func (m MultiSink) Observe(r *Record) {
	for _, s := range m {
		s.Observe(r)
	}
}

// CSVSink streams records to w as CSV rows, writing the header up front and
// each record as it is observed — constant memory no matter how many
// records flow through; a zero-record stream leaves a header-only file.
// Call Flush (and check its error) when the study completes.
type CSVSink struct {
	cw  *csv.Writer
	n   int
	err error
}

// NewCSVSink returns a streaming CSV writer sink with the header row
// already written (buffered until the first Flush).
func NewCSVSink(w io.Writer) *CSVSink {
	s := &CSVSink{cw: csv.NewWriter(w)}
	s.err = s.cw.Write(Header)
	return s
}

// Observe implements Sink.
func (s *CSVSink) Observe(r *Record) {
	if s.err != nil {
		return
	}
	s.n++
	s.err = s.cw.Write(r.row())
}

// Count returns how many records have been observed.
func (s *CSVSink) Count() int { return s.n }

// Flush writes buffered rows through and returns the first error seen.
func (s *CSVSink) Flush() error {
	s.cw.Flush()
	if s.err != nil {
		return s.err
	}
	return s.cw.Error()
}
