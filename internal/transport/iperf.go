package transport

import (
	"time"

	"fivegsim/internal/des"
	"fivegsim/internal/netsim"
)

// BulkResult summarizes an iperf3-style bulk TCP run (Fig. 7/8).
type BulkResult struct {
	ThroughputBps float64 // receiver goodput over the run
	Retransmits   int64
	RTOs          int64
	LossEvents    int64
	CwndTrace     []CwndSample
	RxRates       []RateSample
	MeanRTT       time.Duration
}

// Utilization returns throughput as a fraction of the given UDP baseline.
func (r BulkResult) Utilization(baselineBps float64) float64 {
	if baselineBps <= 0 {
		return 0
	}
	return r.ThroughputBps / baselineBps
}

// RunBulk runs one bulk flow with the named controller over a fresh path
// for the given duration.
func RunBulk(cfg netsim.PathConfig, ctrlName string, duration time.Duration) BulkResult {
	sch := des.New()
	path := netsim.NewPath(sch, cfg)
	defer path.Close()
	conn := NewConn(sch, path, ctrlName, Bulk)
	conn.Start()
	sch.RunUntil(duration)
	res := BulkResult{
		ThroughputBps: float64(conn.DeliveredBytes*8) / duration.Seconds(),
		Retransmits:   conn.Retransmits,
		RTOs:          conn.RTOs,
		LossEvents:    conn.LossEvents,
		CwndTrace:     conn.CwndTrace,
		RxRates:       conn.RxRates(),
		MeanRTT:       conn.SRTT(),
	}
	return res
}

// RunTransfer downloads exactly size bytes and returns the completion
// time (the building block of the web page-load model).
func RunTransfer(cfg netsim.PathConfig, ctrlName string, size int64, maxWait time.Duration) (time.Duration, bool) {
	sch := des.New()
	path := netsim.NewPath(sch, cfg)
	defer path.Close()
	conn := NewConn(sch, path, ctrlName, size)
	done := time.Duration(0)
	conn.Done = func(at time.Duration) { done = at; sch.Stop() }
	conn.Start()
	sch.RunUntil(maxWait)
	if done == 0 {
		return maxWait, false
	}
	return done, true
}
