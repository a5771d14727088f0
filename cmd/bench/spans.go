package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded from the harness's side of
// the layer boundary: name, start, end, the span that caused it, and the
// rep it belongs to. Spans inside the engine are a later change (ROADMAP
// item 4).
type span struct {
	Name    string
	StartNs int64
	EndNs   int64
	Parent  int // index into spans.all, -1 for a root
	Rep     int
}

// spans is the in-memory span log of a traced run. A nil *spans records
// nothing, so the timed reps run the same code with tracing off.
type spans struct {
	t0   time.Time
	rep  int // the traced rep in progress, stamped on every span
	all  []span
	open []int // stack of open span indexes
}

func newSpans() *spans { return &spans{t0: time.Now(), rep: 1} }

// begin opens a span under the innermost open one and returns its index.
func (s *spans) begin(name string) int {
	if s == nil {
		return -1
	}
	parent := -1
	if n := len(s.open); n > 0 {
		parent = s.open[n-1]
	}
	s.all = append(s.all, span{Name: name, StartNs: int64(time.Since(s.t0)), Parent: parent, Rep: s.rep})
	id := len(s.all) - 1
	s.open = append(s.open, id)
	return id
}

// end closes span id (which must be the innermost open span) and returns
// its duration.
func (s *spans) end(id int) time.Duration {
	if s == nil {
		return 0
	}
	sp := &s.all[id]
	sp.EndNs = int64(time.Since(s.t0))
	s.open = s.open[:len(s.open)-1]
	return time.Duration(sp.EndNs - sp.StartNs)
}

// durations lists the durations, in ns, of every closed span called name in
// the rep in progress.
func (s *spans) durations(name string) []float64 {
	var out []float64
	for _, sp := range s.all {
		if sp.Name == name && sp.Rep == s.rep {
			out = append(out, float64(sp.EndNs-sp.StartNs))
		}
	}
	return out
}

// totalMs sums the durations of the rep in progress's spans called name.
func (s *spans) totalMs(name string) float64 {
	var ns float64
	for _, d := range s.durations(name) {
		ns += d
	}
	return ns / 1e6
}

// writeChrome writes the log as Chrome trace-event JSON (complete "X"
// events, microsecond timestamps; load in chrome://tracing or Perfetto).
// Each rep is its own track.
func (s *spans) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(s.all))
	for i, sp := range s.all {
		events = append(events, event{
			Name: sp.Name, Ph: "X",
			Ts: float64(sp.StartNs) / 1e3, Dur: float64(sp.EndNs-sp.StartNs) / 1e3,
			Pid: 1, Tid: sp.Rep,
			Args: map[string]int{"id": i, "parent": sp.Parent},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// window is one fixed slice of simulated time on a classic-engine world:
// the host time it took and the counter deltas across it, read from the
// world's exported counters at the slice boundary.
type window struct {
	hostNs  int64
	fired   uint64
	pending int
	active  int // Σ server ActiveSessions at the boundary
}
