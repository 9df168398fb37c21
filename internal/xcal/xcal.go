// Package xcal is the XCAL-Mobile-equivalent logger: it records the
// physical/MAC-layer KPI samples and control-plane signaling messages the
// paper's measurement campaign collects over the diagnostic interface,
// and exports them in the released-dataset format.
package xcal

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"fivegsim/internal/geom"
	"fivegsim/internal/handoff"
	"fivegsim/internal/radio"
)

// KPIRecord is one physical-layer sample row.
type KPIRecord struct {
	At      time.Duration
	Pos     geom.Point
	Tech    radio.Tech
	PCI     int
	RSRPdBm float64
	RSRQdB  float64
	SINRdB  float64
	CQI     int
	MCS     int
	PRBs    int
}

// SignalingRecord is one control-plane message row.
type SignalingRecord struct {
	At      time.Duration
	Message string
	Detail  string
}

// Logger accumulates KPI and signaling rows like an XCAL capture session.
// The Log methods and row accessors are safe for concurrent use, so
// parallel campaign shards may feed one capture session; read the KPIs
// and Signaling fields directly only after logging has quiesced.
type Logger struct {
	mu        sync.Mutex
	KPIs      []KPIRecord
	Signaling []SignalingRecord
}

// New returns an empty capture session.
func New() *Logger { return &Logger{} }

// LogKPI appends a KPI sample built from a radio measurement.
func (l *Logger) LogKPI(at time.Duration, pos geom.Point, m radio.Measurement, prbs int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.KPIs = append(l.KPIs, KPIRecord{
		At: at, Pos: pos, Tech: m.Tech, PCI: m.PCI,
		RSRPdBm: m.RSRPdBm, RSRQdB: m.RSRQdB, SINRdB: m.SINRdB,
		CQI: m.CQI, MCS: m.MCS, PRBs: prbs,
	})
}

// LogHandoff appends the full signaling ladder of a hand-off event, the
// way XCAL-Mobile exposes the Fig. 24 exchange. The ladder is appended
// atomically, so concurrent loggers cannot interleave their messages
// inside one hand-off's exchange.
func (l *Logger) LogHandoff(e handoff.Event) {
	at := e.At
	recs := make([]SignalingRecord, 0, len(e.Trace)+2)
	recs = append(recs, SignalingRecord{At: at, Message: "Measurement Report",
		Detail: fmt.Sprintf("serving PCI %d, neighbor PCI %d", e.FromPCI, e.ToPCI)})
	for _, step := range e.Trace {
		recs = append(recs, SignalingRecord{At: at, Message: step.Name,
			Detail: fmt.Sprintf("%s hand-off, step latency %v", e.Kind, step.Latency)})
		at += step.Latency
	}
	recs = append(recs, SignalingRecord{At: at, Message: "Hand-off Complete",
		Detail: fmt.Sprintf("PCI %d → %d in %v", e.FromPCI, e.ToPCI, e.Latency)})
	l.mu.Lock()
	defer l.mu.Unlock()
	l.Signaling = append(l.Signaling, recs...)
}

// KPIHeader returns the CSV header of the KPI table.
func KPIHeader() []string {
	return []string{"t_ms", "x_m", "y_m", "tech", "pci", "rsrp_dbm", "rsrq_db", "sinr_db", "cqi", "mcs", "prbs"}
}

// KPIRows renders the KPI table as CSV-ready strings, time-ordered.
func (l *Logger) KPIRows() [][]string {
	l.mu.Lock()
	sorted := append([]KPIRecord(nil), l.KPIs...)
	l.mu.Unlock()
	rows := make([][]string, 0, len(sorted))
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })
	for _, k := range sorted {
		rows = append(rows, []string{
			fmt.Sprintf("%d", k.At.Milliseconds()),
			fmt.Sprintf("%.1f", k.Pos.X),
			fmt.Sprintf("%.1f", k.Pos.Y),
			k.Tech.String(),
			fmt.Sprintf("%d", k.PCI),
			fmt.Sprintf("%.2f", k.RSRPdBm),
			fmt.Sprintf("%.2f", k.RSRQdB),
			fmt.Sprintf("%.2f", k.SINRdB),
			fmt.Sprintf("%d", k.CQI),
			fmt.Sprintf("%d", k.MCS),
			fmt.Sprintf("%d", k.PRBs),
		})
	}
	return rows
}

// SignalingHeader returns the CSV header of the signaling table.
func SignalingHeader() []string { return []string{"t_ms", "message", "detail"} }

// SignalingRows renders the signaling log.
func (l *Logger) SignalingRows() [][]string {
	l.mu.Lock()
	msgs := append([]SignalingRecord(nil), l.Signaling...)
	l.mu.Unlock()
	rows := make([][]string, 0, len(msgs))
	for _, s := range msgs {
		rows = append(rows, []string{fmt.Sprintf("%d", s.At.Milliseconds()), s.Message, s.Detail})
	}
	return rows
}
