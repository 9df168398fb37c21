package wire

import (
	"testing"
	"time"

	"fivegsim/internal/netsim"
	"fivegsim/internal/radio"
)

func TestMeasureServerDeterministic(t *testing.T) {
	a := MeasureServer(radio.NR, Servers[3], 10, 7)
	b := MeasureServer(radio.NR, Servers[3], 10, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("probes not deterministic")
		}
	}
	c := MeasureServer(radio.NR, Servers[3], 10, 8)
	if a[0] == c[0] && a[1] == c[1] {
		t.Fatal("different seeds should differ")
	}
}

func TestProbeJitterAlwaysPositive(t *testing.T) {
	for _, s := range Servers {
		base := BaseRTT(radio.NR, s.DistanceKm)
		for _, rtt := range MeasureServer(radio.NR, s, 30, 3) {
			if rtt <= base {
				t.Fatalf("probe RTT %v at or below base %v (queueing jitter must add)", rtt, base)
			}
			if rtt > base+200*time.Millisecond {
				t.Fatalf("probe RTT %v implausibly far above base %v", rtt, base)
			}
		}
	}
}

func TestEstimateBuffersDeterministic(t *testing.T) {
	a := EstimateBuffers(seededPath(radio.LTE, 3), 5*time.Second)
	b := EstimateBuffers(seededPath(radio.LTE, 3), 5*time.Second)
	if a != b {
		t.Fatalf("buffer estimation not deterministic: %+v vs %+v", a, b)
	}
}

// seededPath returns the calibrated daytime path of tech with its seed
// set, the config T3 hands EstimateBuffers.
func seededPath(tech radio.Tech, seed int64) netsim.PathConfig {
	pc := netsim.DefaultPath(tech, true)
	pc.Seed = seed
	return pc
}
