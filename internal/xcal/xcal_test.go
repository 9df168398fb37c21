package xcal

import (
	"strings"
	"testing"
	"time"

	"fivegsim/internal/geom"
	"fivegsim/internal/handoff"
	"fivegsim/internal/radio"
	"fivegsim/internal/rng"
)

func TestKPILogging(t *testing.T) {
	l := New()
	m := radio.Measurement{PCI: 72, Tech: radio.NR, RSRPdBm: -84.5, RSRQdB: -11.2, SINRdB: 14.3, CQI: 11, MCS: 19}
	l.LogKPI(2*time.Second, geom.Point{X: 10, Y: 20}, m, 264)
	l.LogKPI(time.Second, geom.Point{X: 5, Y: 9}, m, 260)
	rows := l.KPIRows()
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][0] != "1000" {
		t.Fatalf("rows not time-ordered: %v", rows[0])
	}
	if len(rows[0]) != len(KPIHeader()) {
		t.Fatal("row width != header width")
	}
	if rows[0][3] != "5G" || rows[0][4] != "72" {
		t.Fatalf("unexpected row: %v", rows[0])
	}
}

func TestHandoffLadderLogging(t *testing.T) {
	l := New()
	trace, total := handoff.Execute(handoff.Procedure(handoff.FiveToFive), rng.New(1).Stream("x"), []handoff.TraceStep{})
	l.LogHandoff(handoff.Event{
		Kind: handoff.FiveToFive, At: time.Second, FromPCI: 226, ToPCI: 44,
		Latency: total, Trace: trace,
	})
	// Measurement report + every ladder step + completion.
	want := len(trace) + 2
	if len(l.Signaling) != want {
		t.Fatalf("signaling rows = %d, want %d", len(l.Signaling), want)
	}
	joined := ""
	for _, s := range l.Signaling {
		joined += s.Message + "\n"
	}
	for _, needle := range []string{"Measurement Report", "Roll-back to master eNB", "Hand-off Complete"} {
		if !strings.Contains(joined, needle) {
			t.Fatalf("signaling log missing %q", needle)
		}
	}
	if rows := l.SignalingRows(); len(rows) != want || len(rows[0]) != len(SignalingHeader()) {
		t.Fatal("signaling rows malformed")
	}
}
