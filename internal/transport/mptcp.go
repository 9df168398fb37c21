package transport

import (
	"time"

	"fivegsim/internal/des"
	"fivegsim/internal/netsim"
)

// MPTCP is the multipath extension the paper flags as future work twice:
// "dynamic 4G-5G switching may also be a use case for MPTCP [53], which
// is an interesting topic particularly considering the long-term 4G/5G
// coexistence" (§6.3). This implementation runs one subflow per radio on
// a shared simulated clock and aggregates their delivery — the
// capacity-pooling configuration of MPTCP with decoupled per-subflow
// congestion control (each subflow runs its own controller, as Linux's
// default scheduler does for disjoint bottlenecks; the 4G and 5G paths
// share no queue in the NSA data plane, so coupling would only slow the
// aggregate down).
type MPTCP struct {
	sch      *des.Scheduler
	subflows []*Conn
}

// MPTCPResult summarizes a dual-radio bulk run.
type MPTCPResult struct {
	TotalBps   float64
	PerPathBps []float64
	// AggregationEfficiency is TotalBps over the sum of what each path
	// achieves alone.
	AggregationEfficiency float64
}

// NewMPTCP builds subflows, one per path, all using the named controller.
// The paths must share the scheduler.
func NewMPTCP(sch *des.Scheduler, paths []*netsim.Path, ctrlName string) *MPTCP {
	m := &MPTCP{sch: sch}
	for _, p := range paths {
		m.subflows = append(m.subflows, NewConn(sch, p, ctrlName, Bulk))
	}
	return m
}

// Start launches every subflow.
func (m *MPTCP) Start() {
	for _, c := range m.subflows {
		c.Start()
	}
}

// RunMPTCPBulk runs a dual-path bulk transfer (one subflow per config)
// and compares against the single-path throughputs.
func RunMPTCPBulk(cfgs []netsim.PathConfig, ctrlName string, duration time.Duration) MPTCPResult {
	sch := des.New()
	paths := make([]*netsim.Path, len(cfgs))
	for i, cfg := range cfgs {
		paths[i] = netsim.NewPath(sch, cfg)
	}
	m := NewMPTCP(sch, paths, ctrlName)
	m.Start()
	sch.RunUntil(duration)

	res := MPTCPResult{}
	var soloSum float64
	for i, c := range m.subflows {
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
