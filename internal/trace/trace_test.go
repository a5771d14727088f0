package trace

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sample() []*Record {
	return []*Record{
		{
			User: "u1", Country: "US", State: "MA", Region: "US/Canada",
			Access: "DSL/Cable", PCClass: "Pentium III / 256-512MB",
			ClipURL: "rtsp://cnn.us/clip000.rm", Server: "US/CNN",
			ServerCountry: "US", ServerRegion: "US/Canada",
			Protocol:    "UDP",
			EncodedKbps: 225, EncodedFPS: 20,
			MeasuredKbps: 240.5, MeasuredFPS: 16.2, JitterMs: 23.4,
			FramesPlayed: 970, FramesDroppedLate: 3, FramesDroppedCPU: 0,
			FramesLost: 2, FramesCorrupted: 12,
			Rebuffers: 1, RebufferTime: 4 * time.Second, BufferingTime: 9 * time.Second,
			CPUUtilization: 0.41, Switches: 2,
			Rated: true, Rating: 7,
			Dynamics: "lossburst", Policy: "rtt", StartSec: 120.5, EndSec: 195.25,
		},
		{
			User: "u2", Country: "Australia", Region: "Australia",
			Access: "56k Modem", PCClass: "Intel Pentium MMX / 24MB",
			ClipURL: "rtsp://abc.au/clip003.rm", Server: "AUS/BBC",
			ServerCountry: "Australia", ServerRegion: "Australia",
			Unavailable: true, Protocol: "TCP",
		},
		{
			User: "u3", Country: "UK", Region: "Europe",
			Access: "T1/LAN", PCClass: "AMD / 320-512MB",
			ClipURL: "rtsp://bbc.uk/clip001.rm", Server: "UK/BBC",
			ServerCountry: "UK", ServerRegion: "Europe",
			Failed: true, FailReason: "idle timeout", Protocol: "UDP",
		},
	}
}

func TestCSVRoundTrip(t *testing.T) {
	recs := sample()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("rows=%d want %d", len(got), len(recs))
	}
	a, b := got[0], recs[0]
	if a.User != b.User || a.MeasuredKbps != b.MeasuredKbps || a.JitterMs != b.JitterMs ||
		a.FramesCorrupted != b.FramesCorrupted || a.RebufferTime != b.RebufferTime ||
		a.Rated != b.Rated || a.Rating != b.Rating {
		t.Fatalf("record 0 mismatch:\n%+v\n%+v", a, b)
	}
	if !got[1].Unavailable || !got[2].Failed {
		t.Fatal("outcome flags lost")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	recs := sample()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || *got[0] != *recs[0] || got[2].FailReason != "idle timeout" {
		t.Fatal("json round trip mismatch")
	}
}

// TestReadCSVLegacyColumns: traces written under the older schemas — before
// the dynamics column (30 cols) and before the workload columns (31 cols) —
// still read back, with the missing trailing fields at their zero values.
func TestReadCSVLegacyColumns(t *testing.T) {
	for _, width := range []int{legacyColumns, preWorkloadColumns} {
		var buf bytes.Buffer
		if err := WriteCSV(&buf, sample()[:1]); err != nil {
			t.Fatal(err)
		}
		rows, err := csv.NewReader(&buf).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		var legacy bytes.Buffer
		cw := csv.NewWriter(&legacy)
		for _, row := range rows {
			if err := cw.Write(row[:width]); err != nil {
				t.Fatal(err)
			}
		}
		cw.Flush()
		got, err := ReadCSV(strings.NewReader(legacy.String()))
		if err != nil {
			t.Fatalf("legacy %d-column trace rejected: %v", width, err)
		}
		if len(got) != 1 || got[0].Policy != "" || got[0].StartSec != 0 || got[0].User != "u1" {
			t.Fatalf("legacy %d-column read wrong: %+v", width, got[0])
		}
		if width > legacyColumns && got[0].Dynamics == "" {
			t.Fatalf("31-column read lost the dynamics field")
		}
	}
}

func TestReadCSVRejectsWrongHeader(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("a,b,c\n1,2,3\n")); err == nil {
		t.Fatal("wrong column count accepted")
	}
}

func TestReadCSVRejectsBadRow(t *testing.T) {
	var buf bytes.Buffer
	WriteCSV(&buf, sample()[:1])
	corrupted := strings.Replace(buf.String(), "240.5", "not-a-number", 1)
	if _, err := ReadCSV(strings.NewReader(corrupted)); err == nil {
		t.Fatal("bad float accepted")
	}
}

func TestReadCSVEmpty(t *testing.T) {
	got, err := ReadCSV(strings.NewReader(""))
	if err != nil || got != nil {
		t.Fatalf("empty input: %v %v", got, err)
	}
}

func TestPropertyCSVNumericRoundTrip(t *testing.T) {
	f := func(kbpsRaw, fpsRaw, jitRaw uint32, played, lost uint16, rated bool, rating uint8) bool {
		// Constrain to the measurement domain: non-negative, bounded.
		kbps := float64(kbpsRaw%1_000_000) / 100
		fps := float64(fpsRaw%3000) / 100
		jit := float64(jitRaw%10_000_000) / 1000
		rec := &Record{
			User: "u", Country: "US", Region: "US/Canada", Access: "T1/LAN",
			ClipURL: "rtsp://x/y.rm", Server: "S", Protocol: "TCP",
			MeasuredKbps: kbps, MeasuredFPS: fps, JitterMs: jit,
			FramesPlayed: int(played), FramesLost: int(lost),
			Rated: rated, Rating: float64(rating % 11),
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, []*Record{rec}); err != nil {
			return false
		}
		got, err := ReadCSV(&buf)
		if err != nil || len(got) != 1 {
			return false
		}
		g := got[0]
		close := func(a, b float64) bool {
			d := a - b
			if d < 0 {
				d = -d
			}
			scale := 1.0
			if b > 1 {
				scale = b
			}
			return d/scale < 1e-4
		}
		return close(g.MeasuredKbps, rec.MeasuredKbps) && close(g.MeasuredFPS, rec.MeasuredFPS) &&
			g.FramesPlayed == rec.FramesPlayed && g.Rated == rec.Rated
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
