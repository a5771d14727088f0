package core

import (
	"bytes"
	"testing"
	"time"

	"realtracer/internal/campaign"
	"realtracer/internal/figures"
	"realtracer/internal/netsim"
	"realtracer/internal/study"
	"realtracer/internal/trace"
	"realtracer/internal/transport"
)

func TestRunSessionBasics(t *testing.T) {
	st, err := RunSession(SessionOptions{
		Protocol:     transport.UDP,
		ClientAccess: netsim.AccessDSLCable,
		ClipKbps:     225,
		PlayFor:      30 * time.Second,
		Seed:         3,
	})
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	if st.FramesPlayed == 0 || st.MeasuredKbps == 0 {
		t.Fatalf("empty session: %+v", st)
	}
}

func TestFig01TimelineShape(t *testing.T) {
	fig, st, err := Fig01Timeline(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("series=%d want 4 (coded/current x bandwidth/framerate)", len(fig.Series))
	}
	// The paper's Figure 1: an initial buffering phase with zero frame
	// rate, then steady playout.
	if st.BufferingTime < 2*time.Second {
		t.Fatalf("buffering %.1fs too short for the figure", st.BufferingTime.Seconds())
	}
	var sawZeroFPS, sawPlayout bool
	for _, pt := range st.Timeline {
		if pt.T < st.BufferingTime && pt.FPS == 0 && pt.Kbps > 0 {
			sawZeroFPS = true
		}
		if pt.FPS > 5 {
			sawPlayout = true
		}
	}
	if !sawZeroFPS || !sawPlayout {
		t.Fatalf("timeline missing buffering (zero fps with data) or playout phase")
	}
	var buf bytes.Buffer
	fig.Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("render empty")
	}
}

// render writes every figure drawn from agg, in figures.All order, as
// cmd/study -figures does.
func render(agg *figures.Aggregates) []byte {
	var buf bytes.Buffer
	for _, g := range figures.All() {
		g.Agg(agg).Render(&buf)
	}
	return buf.Bytes()
}

func TestAllFiguresFromReducedStudy(t *testing.T) {
	res, err := study.Run(study.Options{Seed: 2, MaxUsers: 8, ClipCap: 6})
	if err != nil {
		t.Fatal(err)
	}
	figs := AllFigures(res.Records)
	if len(figs) != 24 {
		t.Fatalf("figures=%d want 24", len(figs))
	}
	var want bytes.Buffer
	for _, f := range figs {
		f.Render(&want)
	}
	got := render(figures.Aggregate(res.Records))
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("rendering every generator differs from rendering AllFigures")
	}
	if len(got) < 1000 {
		t.Fatalf("render suspiciously small: %d bytes", len(got))
	}
}

func TestRunSessionAblationsDiffer(t *testing.T) {
	base, err := RunSession(SessionOptions{
		Protocol: transport.UDP, ClientAccess: netsim.AccessDSLCable,
		ClipKbps: 350, Seed: 5,
		Route: netsim.Route{OneWayDelay: 40 * time.Millisecond, LossRate: 0.03},
	})
	if err != nil {
		t.Fatal(err)
	}
	noFEC, err := RunSession(SessionOptions{
		Protocol: transport.UDP, ClientAccess: netsim.AccessDSLCable,
		ClipKbps: 350, Seed: 5, DisableFEC: true,
		Route: netsim.Route{OneWayDelay: 40 * time.Millisecond, LossRate: 0.03},
	})
	if err != nil {
		t.Fatal(err)
	}
	// With 3% loss, disabling FEC must not reduce corruption.
	if noFEC.FramesCorrupted < base.FramesCorrupted {
		t.Fatalf("FEC off reduced corruption: %d vs %d", noFEC.FramesCorrupted, base.FramesCorrupted)
	}
}

func TestStudyRecordsFeedRealdataPath(t *testing.T) {
	// The CSV written by the study must round-trip for the realdata tool.
	res, err := study.Run(study.Options{Seed: 4, MaxUsers: 4, ClipCap: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, res.Records); err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(res.Records) {
		t.Fatalf("round trip lost records: %d vs %d", len(got), len(res.Records))
	}
	g, _ := figures.ByID("fig11")
	if fig := g.Agg(figures.Aggregate(got)); len(fig.Series) == 0 {
		t.Fatal("fig11 from the round-tripped records is empty")
	}
}

// TestStudyIntoAggregates: a world whose sink is an Aggregates produces the
// same figures as aggregating the retained records afterwards, without
// retaining any.
func TestStudyIntoAggregates(t *testing.T) {
	opt := study.Options{Seed: 4, MaxUsers: 4, ClipCap: 3}
	w, err := study.NewWorld(opt)
	if err != nil {
		t.Fatal(err)
	}
	agg := figures.NewAggregates()
	w.SetSink(agg)
	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != nil {
		t.Fatal("study under an aggregates sink retained records")
	}
	if agg.Total() == 0 || agg.Played() == 0 {
		t.Fatal("aggregates observed nothing")
	}
	batch, err := study.Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Total() != len(batch.Records) {
		t.Fatalf("aggregate total %d vs %d batch records", agg.Total(), len(batch.Records))
	}
	if !bytes.Equal(render(agg), render(figures.Aggregate(batch.Records))) {
		t.Fatal("streamed figures differ from batch figures")
	}
	g, _ := figures.ByID("fig11")
	if fig := g.Agg(agg); fig.ID != "fig11" || len(fig.Series) == 0 {
		t.Fatal("fig11 from the streamed aggregates is empty")
	}
}

// TestRunCampaignAggregatesWorkerInvariant: the merged campaign aggregates
// must not depend on the worker pool size.
func TestRunCampaignAggregatesWorkerInvariant(t *testing.T) {
	scs := []campaign.Scenario{
		{Name: "a", Options: study.Options{MaxUsers: 3, ClipCap: 2}},
		{Name: "b", Options: study.Options{MaxUsers: 3, ClipCap: 2}},
		{Name: "c", Options: study.Options{MaxUsers: 3, ClipCap: 2}},
		{Name: "d", Options: study.Options{MaxUsers: 3, ClipCap: 2}},
	}
	agg1, sum1 := RunCampaignAggregates(scs, campaign.Config{Workers: 1, BaseSeed: 8})
	if err := sum1.Err(); err != nil {
		t.Fatal(err)
	}
	agg4, sum4 := RunCampaignAggregates(scs, campaign.Config{Workers: 4, BaseSeed: 8})
	if err := sum4.Err(); err != nil {
		t.Fatal(err)
	}
	if agg1.Total() == 0 || agg1.Total() != agg4.Total() {
		t.Fatalf("totals differ: %d vs %d", agg1.Total(), agg4.Total())
	}
	if !bytes.Equal(render(agg1), render(agg4)) {
		t.Fatal("merged aggregates differ across worker counts")
	}
}
