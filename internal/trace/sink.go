package trace

import (
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

// Sync implements SnapSink: the retained records in observation order, each
// walked by Record.Sync.
func (c *Collector) Sync(sc *snap.Codec) {
	snap.Slice(sc, &c.records, func(sc *snap.Codec, r **Record) {
		if sc.Reading() {
			*r = new(Record)
		}
		(*r).Sync(sc)
	})
}

// Sync walks every field of the record, Ordinal included, in declaration
// order. A decode builds each distinct string once (snap.Codec.Str): a
// snapshot's records name the same few users, clips, servers and labels over
// and over.
func (r *Record) Sync(c *snap.Codec) {
	c.Str(&r.User)
	c.Str(&r.Country)
	c.Str(&r.State)
	c.Str(&r.Region)
	c.Str(&r.Access)
	c.Str(&r.PCClass)
	c.Str(&r.ClipURL)
	c.Str(&r.Server)
	c.Str(&r.ServerCountry)
	c.Str(&r.ServerRegion)
	c.Bool(&r.Unavailable)
	c.Bool(&r.Failed)
	c.Str(&r.FailReason)
	c.Str(&r.Protocol)
	c.F64(&r.EncodedKbps)
	c.F64(&r.EncodedFPS)
	c.F64(&r.MeasuredKbps)
	c.F64(&r.MeasuredFPS)
	c.F64(&r.JitterMs)
	c.Int(&r.FramesPlayed)
	c.Int(&r.FramesDroppedLate)
	c.Int(&r.FramesDroppedCPU)
	c.Int(&r.FramesLost)
	c.Int(&r.FramesCorrupted)
	c.Int(&r.Rebuffers)
	c.Dur(&r.RebufferTime)
	c.Dur(&r.BufferingTime)
	c.F64(&r.CPUUtilization)
	c.Int(&r.Switches)
	c.Bool(&r.Rated)
	c.F64(&r.Rating)
	c.Str(&r.Dynamics)
	c.Str(&r.Policy)
	c.F64(&r.StartSec)
	c.F64(&r.EndSec)
	c.I64(&r.Ordinal)
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
