package study

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"realtracer/internal/figures"
	"realtracer/internal/netsim"
	"realtracer/internal/trace"
)

// TestConservation is the first slice of the invariant oracle: every fence
// world, on every engine that runs it (the closed panel is classic-only),
// retaining its records and streaming them, must balance its books.
func TestConservation(t *testing.T) {
	for _, fw := range fenceWorlds {
		engines := []int{0}
		if fw.opt.OpenLoop() {
			engines = []int{0, 1, 2}
		}
		for _, shards := range engines {
			opt := fw.opt
			opt.Shards = shards
			t.Run(fmt.Sprintf("%s/shards=%d", fw.name, shards), func(t *testing.T) { checkConservation(t, opt) })
		}
	}
}

// checkConservation runs opt twice — under the default collector and
// streaming into aggregates — and asserts on each finished world:
//
//   - packets: sent = delivered + dropped + still scheduled on a clock,
//     summed over the shards of a sharded world;
//   - arrivals: the budget was spent on sessions and balks, nothing else;
//   - sessions: every admitted session ended, by finishing its playlist or
//     by departing mid-stream, so the sessions that reported a record number
//     at least finished = sessions − departed and at most sessions;
//
// and across the two: the same events, and streamed aggregates equal to
// figures.Aggregate of the retained records.
func checkConservation(t *testing.T, opt Options) {
	run := func(sink trace.Sink) *Result {
		t.Helper()
		w, err := NewWorld(opt)
		if err != nil {
			t.Fatal(err)
		}
		w.SetSink(sink) // nil keeps the default collector
		packets := func(when string) {
			t.Helper()
			sent, delivered, dropped := w.Net.Stats()
			if w.fab != nil {
				sent, delivered, dropped = w.fab.Stats()
			}
			var scheduled uint64
			for s := 0; s < max(1, opt.Shards); s++ {
				for _, pe := range w.clockFor(s).Pendings() {
					if _, ok := pe.Handler.(*netsim.Packet); ok {
						scheduled++
					}
				}
			}
			if sent != delivered+dropped+scheduled || sent == 0 && w.ran {
				t.Errorf("packets %s: sent %d != delivered %d + dropped %d + still scheduled %d", when, sent, delivered, dropped, scheduled)
			}
		}
		if w.fab == nil { // a sharded world cannot be partially driven
			if err := w.RunUntil(10 * time.Minute); err != nil {
				t.Fatal(err)
			}
			packets("mid-run")
		}
		res, err := w.Run()
		if err != nil {
			t.Fatal(err)
		}
		packets("at the end")

		if !opt.OpenLoop() {
			if res.Sessions+res.Balked+res.Departed != 0 {
				t.Errorf("closed panel reports sessions=%d balked=%d departed=%d", res.Sessions, res.Balked, res.Departed)
			}
			return res
		}
		if res.Sessions+res.Balked != w.Options.Arrivals {
			t.Errorf("arrivals: %d sessions + %d balked != %d arrivals", res.Sessions, res.Balked, w.Options.Arrivals)
		}
		if active := w.open.activeN(); active != 0 || res.Departed > res.Sessions {
			t.Errorf("sessions: %d admitted, %d departed, %d still active at the end", res.Sessions, res.Departed, active)
		}
		return res
	}

	retained := run(nil)
	streamed := figures.NewAggregates()
	sres := run(streamed)

	if opt.OpenLoop() {
		reported := map[int64]bool{}
		for _, r := range retained.Records {
			reported[r.Ordinal] = true
		}
		if n, finished := len(reported), retained.Sessions-retained.Departed; n < finished || n > retained.Sessions {
			t.Errorf("sessions: %d reported a record, outside [finished %d, sessions %d]", n, finished, retained.Sessions)
		}
	}
	if sres.Records != nil || sres.Events != retained.Events || sres.Sessions != retained.Sessions ||
		sres.Balked != retained.Balked || sres.Departed != retained.Departed {
		t.Errorf("streamed run diverged from the retained one: %d records kept, %d events vs %d, sessions %d/%d/%d vs %d/%d/%d",
			len(sres.Records), sres.Events, retained.Events, sres.Sessions, sres.Balked, sres.Departed,
			retained.Sessions, retained.Balked, retained.Departed)
	}
	if !bytes.Equal(renderAggregates(streamed), renderAggregates(figures.Aggregate(retained.Records))) {
		t.Error("streamed aggregates differ from figures.Aggregate of the retained records")
	}
}
