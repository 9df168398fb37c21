package transport

import (
	"testing"
	"time"

	"fivegsim/internal/netsim"
	"fivegsim/internal/radio"
)

func TestMPTCPAggregatesCapacity(t *testing.T) {
	cfgs := []netsim.PathConfig{
		netsim.DefaultPath(radio.NR, true),
		netsim.DefaultPath(radio.LTE, true),
	}
	cfgs[1].Seed = 2 // independent cross-traffic processes
	dur := 10 * time.Second
	if testing.Short() {
		dur = 3 * time.Second // both subflows are past startup
	}
	res := RunMPTCPBulk(cfgs, "bbr", dur)
	if len(res.PerPathBps) != 2 {
		t.Fatalf("subflows = %d", len(res.PerPathBps))
	}
	// The aggregate must beat the best single path: that is MPTCP's point.
	best := res.PerPathBps[0]
	if res.PerPathBps[1] > best {
		best = res.PerPathBps[1]
	}
	if res.TotalBps <= best {
		t.Fatalf("aggregate %.0f Mb/s does not exceed best path %.0f Mb/s", res.TotalBps/1e6, best/1e6)
	}
	// Subflows on disjoint paths should aggregate near-losslessly.
	if res.AggregationEfficiency < 0.85 || res.AggregationEfficiency > 1.15 {
		t.Fatalf("aggregation efficiency = %.2f", res.AggregationEfficiency)
	}
	// Both radios contribute.
	if res.PerPathBps[0] < 100e6 {
		t.Fatalf("5G subflow only %.0f Mb/s", res.PerPathBps[0]/1e6)
	}
	if res.PerPathBps[1] < 20e6 {
		t.Fatalf("4G subflow only %.0f Mb/s", res.PerPathBps[1]/1e6)
	}
}

func TestMPTCPSingleSubflowMatchesTCP(t *testing.T) {
	cfg := netsim.DefaultPath(radio.LTE, true)
	cfg.Cross = netsim.CrossConfig{}
	m := RunMPTCPBulk([]netsim.PathConfig{cfg}, "cubic", 6*time.Second)
	single := RunBulk(cfg, "cubic", 6*time.Second)
	ratio := m.TotalBps / single.ThroughputBps
	if ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("one-subflow MPTCP deviates from plain TCP: %.2f", ratio)
	}
}
