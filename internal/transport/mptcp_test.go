package transport

import (
	"testing"
	"time"

	"fivegsim/internal/netsim"
	"fivegsim/internal/obs"
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

// TestMPTCPPublishesSubflowCounts: subflows that share a scheduler each
// publish their own ACK, loss and RTO counts as their paths close, so an
// MPTCP run's cc counters are the sums of its subflows' counts, and the
// scheduler publishes its events once, with the first Close.
func TestMPTCPPublishesSubflowCounts(t *testing.T) {
	reg := obs.NewRegistry()
	cfgs := []netsim.PathConfig{
		netsim.DefaultPath(radio.NR, true),
		netsim.DefaultPath(radio.LTE, true),
	}
	cfgs[1].Seed = 2
	for i := range cfgs {
		cfgs[i].Obs = reg
	}
	subflows := runSubflows(cfgs, "cubic", 2*time.Second)
	var acks, losses, rtos int64
	for _, c := range subflows {
		acks += c.acks
		losses += c.LossEvents
		rtos += c.RTOs
	}
	if losses == 0 {
		t.Fatal("no subflow entered loss recovery: the loss count went unexercised")
	}
	for name, want := range map[string]int64{
		"cc.acks{algo=cubic}": acks, "cc.loss_events{algo=cubic}": losses, "cc.rto_events{algo=cubic}": rtos,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want the subflows' sum %d", name, got, want)
		}
	}

	// The shared scheduler publishes its events once, with the first
	// Close, into that path's registry.
	first, second := obs.NewRegistry(), obs.NewRegistry()
	cfgs[0].Obs, cfgs[1].Obs = first, second
	runSubflows(cfgs, "cubic", 200*time.Millisecond)
	if a, b := first.Counter("des.events_fired").Value(), second.Counter("des.events_fired").Value(); a == 0 || b != 0 {
		t.Errorf("des.events_fired = %d in the first path's registry and %d in the second's, want all in the first", a, b)
	}
}
