package transport

import (
	"time"

	"fivegsim/internal/des"
	"fivegsim/internal/netsim"
)

// MPTCPResult summarizes a dual-radio bulk run.
type MPTCPResult struct {
	TotalBps   float64
	PerPathBps []float64
	// AggregationEfficiency is TotalBps over the sum of what each path
	// achieves alone.
	AggregationEfficiency float64
}

// RunMPTCPBulk runs a multipath bulk transfer, one subflow per config,
// and compares it against the single-path throughputs.
//
// This is the multipath extension the paper flags as future work twice:
// "dynamic 4G-5G switching may also be a use case for MPTCP [53], which
// is an interesting topic particularly considering the long-term 4G/5G
// coexistence" (§6.3). The subflows run on a shared simulated clock and
// their delivery is aggregated — the capacity-pooling configuration of
// MPTCP with decoupled per-subflow congestion control (each subflow runs
// its own controller, as Linux's default scheduler does for disjoint
// bottlenecks; the 4G and 5G paths share no queue in the NSA data plane,
// so coupling would only slow the aggregate down).
func RunMPTCPBulk(cfgs []netsim.PathConfig, ctrlName string, duration time.Duration) MPTCPResult {
	res := MPTCPResult{}
	var soloSum float64
	// The solo runs reuse the subflows' packet storage.
	for i, c := range runSubflows(cfgs, ctrlName, duration) {
		bps := float64(c.DeliveredBytes*8) / duration.Seconds()
		res.PerPathBps = append(res.PerPathBps, bps)
		res.TotalBps += bps
		solo := RunBulk(cfgs[i], ctrlName, duration)
		soloSum += solo.ThroughputBps
	}
	if soloSum > 0 {
		res.AggregationEfficiency = res.TotalBps / soloSum
	}
	return res
}

// runSubflows runs one bulk subflow per config on a shared scheduler for
// duration, closes their paths, and returns the subflows.
func runSubflows(cfgs []netsim.PathConfig, ctrlName string, duration time.Duration) []*Conn {
	sch := des.New()
	// Every path is built before any subflow starts, so the paths'
	// own events are scheduled first.
	paths := make([]*netsim.Path, len(cfgs))
	for i, cfg := range cfgs {
		paths[i] = netsim.NewPath(sch, cfg)
	}
	subflows := make([]*Conn, len(paths))
	for i, p := range paths {
		subflows[i] = NewConn(sch, p, ctrlName, Bulk)
		subflows[i].Start()
	}
	sch.RunUntil(duration)
	for _, p := range paths {
		p.Close()
	}
	return subflows
}
