// Package trace defines the per-clip measurement record RealTracer reported
// back to WPI, with CSV and JSON codecs. cmd/study writes these files and
// cmd/realdata (the paper's announced analysis tool) reads them back and
// regenerates the figures, so the collection and analysis halves of the
// study stay decoupled exactly as they were in 2001.
package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"
)

// Record is one clip playout by one user.
type Record struct {
	// User identity and configuration (the RealTracer dialog of Fig. 2a).
	User    string `json:"user"`
	Country string `json:"country"`
	State   string `json:"state,omitempty"`
	Region  string `json:"region"`
	Access  string `json:"access"`
	PCClass string `json:"pc_class"`

	// Clip and server.
	ClipURL       string `json:"clip_url"`
	Server        string `json:"server"`
	ServerCountry string `json:"server_country"`
	ServerRegion  string `json:"server_region"`

	// Session outcome.
	Unavailable bool   `json:"unavailable"`
	Failed      bool   `json:"failed"`
	FailReason  string `json:"fail_reason,omitempty"`
	Protocol    string `json:"protocol"`

	// Encoded stream parameters.
	EncodedKbps float64 `json:"encoded_kbps"`
	EncodedFPS  float64 `json:"encoded_fps"`

	// Measured performance.
	MeasuredKbps float64 `json:"measured_kbps"`
	MeasuredFPS  float64 `json:"measured_fps"`
	JitterMs     float64 `json:"jitter_ms"`

	FramesPlayed      int `json:"frames_played"`
	FramesDroppedLate int `json:"frames_dropped_late"`
	FramesDroppedCPU  int `json:"frames_dropped_cpu"`
	FramesLost        int `json:"frames_lost"`
	FramesCorrupted   int `json:"frames_corrupted"`

	Rebuffers      int           `json:"rebuffers"`
	RebufferTime   time.Duration `json:"rebuffer_time_ns"`
	BufferingTime  time.Duration `json:"buffering_time_ns"`
	CPUUtilization float64       `json:"cpu_utilization"`
	Switches       int           `json:"switches"`

	// Rated is true when the user watched and rated this clip; Rating is
	// the 0-10 score (Fig. 2c).
	Rated  bool    `json:"rated"`
	Rating float64 `json:"rating,omitempty"`

	// Dynamics labels the network-dynamics regime the clip played under
	// ("" = the static baseline Internet; otherwise a study profile name
	// like "outage" or "lossburst"). Drives the per-condition robustness
	// breakdown in figures.Aggregates.
	Dynamics string `json:"dynamics,omitempty"`

	// Policy labels the server-selection policy the clip was fetched
	// under ("" = the closed-loop panel, which always uses the clip's
	// home site). Drives the per-policy workload breakdown.
	Policy string `json:"policy,omitempty"`
	// StartSec and EndSec bracket the clip attempt in virtual time
	// (seconds since the start of the run). The concurrent-session
	// time-series sketch is built from these.
	StartSec float64 `json:"start_s,omitempty"`
	EndSec   float64 `json:"end_s,omitempty"`

	// Ordinal is the session's partition-invariant arrival stamp (the
	// owning arrival cell's ordinal and the session's per-cell launch
	// count), used by the sharded engine's record merge as a total-order
	// tiebreak when two records agree on every sort key above. It is
	// deliberately excluded from the CSV columns: it identifies a launch,
	// not an observable of the study.
	Ordinal int64 `json:"-"`
}

// Header is the CSV column order.
var Header = []string{
	"user", "country", "state", "region", "access", "pc_class",
	"clip_url", "server", "server_country", "server_region",
	"unavailable", "failed", "protocol",
	"encoded_kbps", "encoded_fps",
	"measured_kbps", "measured_fps", "jitter_ms",
	"frames_played", "frames_dropped_late", "frames_dropped_cpu", "frames_lost", "frames_corrupted",
	"rebuffers", "rebuffer_ms", "buffering_ms", "cpu_utilization", "switches",
	"rated", "rating", "dynamics",
	"policy", "start_s", "end_s",
}

func (r *Record) row() []string {
	return []string{
		r.User, r.Country, r.State, r.Region, r.Access, r.PCClass,
		r.ClipURL, r.Server, r.ServerCountry, r.ServerRegion,
		strconv.FormatBool(r.Unavailable), strconv.FormatBool(r.Failed), r.Protocol,
		ftoa(r.EncodedKbps), ftoa(r.EncodedFPS),
		ftoa(r.MeasuredKbps), ftoa(r.MeasuredFPS), ftoa(r.JitterMs),
		strconv.Itoa(r.FramesPlayed), strconv.Itoa(r.FramesDroppedLate),
		strconv.Itoa(r.FramesDroppedCPU), strconv.Itoa(r.FramesLost),
		strconv.Itoa(r.FramesCorrupted),
		strconv.Itoa(r.Rebuffers),
		strconv.FormatInt(r.RebufferTime.Milliseconds(), 10),
		strconv.FormatInt(r.BufferingTime.Milliseconds(), 10),
		ftoa(r.CPUUtilization), strconv.Itoa(r.Switches),
		strconv.FormatBool(r.Rated), ftoa(r.Rating),
		r.Dynamics,
		r.Policy, ftoa(r.StartSec), ftoa(r.EndSec),
	}
}

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', 6, 64) }

// WriteCSV writes records with a header row.
func WriteCSV(w io.Writer, records []*Record) error {
	s := NewCSVSink(w)
	for _, r := range records {
		s.Observe(r)
	}
	return s.Flush()
}

// ReadCSV reads records written by WriteCSV.
func ReadCSV(r io.Reader) ([]*Record, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, nil
	}
	if !legalColumns(len(rows[0])) {
		return nil, fmt.Errorf("trace: header has %d columns, want %d", len(rows[0]), len(Header))
	}
	var out []*Record
	for i, row := range rows[1:] {
		rec, err := fromRow(row)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d: %w", i+2, err)
		}
		out = append(out, rec)
	}
	return out, nil
}

// legacyColumns is the pre-dynamics column count and preWorkloadColumns
// the pre-selection one; traces collected under either older schema still
// read back, with the missing trailing fields left at their zero values.
const (
	legacyColumns      = 30
	preWorkloadColumns = 31
)

func legalColumns(n int) bool {
	return n == len(Header) || n == legacyColumns || n == preWorkloadColumns
}

func fromRow(row []string) (*Record, error) {
	if !legalColumns(len(row)) {
		return nil, fmt.Errorf("want %d fields, got %d", len(Header), len(row))
	}
	var r Record
	var err error
	atof := func(s string) float64 {
		if err != nil {
			return 0
		}
		var v float64
		v, err = strconv.ParseFloat(s, 64)
		return v
	}
	atoi := func(s string) int {
		if err != nil {
			return 0
		}
		var v int
		v, err = strconv.Atoi(s)
		return v
	}
	atob := func(s string) bool {
		if err != nil {
			return false
		}
		var v bool
		v, err = strconv.ParseBool(s)
		return v
	}
	r.User, r.Country, r.State, r.Region, r.Access, r.PCClass = row[0], row[1], row[2], row[3], row[4], row[5]
	r.ClipURL, r.Server, r.ServerCountry, r.ServerRegion = row[6], row[7], row[8], row[9]
	r.Unavailable, r.Failed, r.Protocol = atob(row[10]), atob(row[11]), row[12]
	r.EncodedKbps, r.EncodedFPS = atof(row[13]), atof(row[14])
	r.MeasuredKbps, r.MeasuredFPS, r.JitterMs = atof(row[15]), atof(row[16]), atof(row[17])
	r.FramesPlayed, r.FramesDroppedLate = atoi(row[18]), atoi(row[19])
	r.FramesDroppedCPU, r.FramesLost = atoi(row[20]), atoi(row[21])
	r.FramesCorrupted = atoi(row[22])
	r.Rebuffers = atoi(row[23])
	r.RebufferTime = time.Duration(atoi(row[24])) * time.Millisecond
	r.BufferingTime = time.Duration(atoi(row[25])) * time.Millisecond
	r.CPUUtilization, r.Switches = atof(row[26]), atoi(row[27])
	r.Rated, r.Rating = atob(row[28]), atof(row[29])
	if len(row) > legacyColumns {
		r.Dynamics = row[30]
	}
	if len(row) > preWorkloadColumns {
		r.Policy = row[31]
		r.StartSec, r.EndSec = atof(row[32]), atof(row[33])
	}
	return &r, err
}

// WriteJSON writes records as a JSON array.
func WriteJSON(w io.Writer, records []*Record) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(records)
}

// ReadJSON reads a JSON array of records.
func ReadJSON(r io.Reader) ([]*Record, error) {
	var out []*Record
	if err := json.NewDecoder(r).Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}
