package handoff

import (
	"reflect"
	"testing"
	"time"

	"fivegsim/internal/deploy"
)

func shortCfg() Config {
	cfg := DefaultConfig()
	cfg.Duration = 4 * time.Minute
	return cfg
}

// RunCampaigns must reproduce the historical serial seed ladder
// (seed+1 … seed+n) exactly, for every worker count.
func TestRunCampaignsWorkerEquivalence(t *testing.T) {
	campus := deploy.New(42)
	cfg := shortCfg()
	seeds := []int64{0, 41, 6}
	workerCounts := []int{2, 3, 8}
	if testing.Short() {
		// Keep one seed × one worker count under `-race -short` CI; the
		// full sweep runs in the default suite.
		seeds, workerCounts = seeds[:1], workerCounts[1:2]
	}
	for _, seed := range seeds {
		serial := RunCampaigns(campus, cfg, seed, 3, 1)
		for _, workers := range workerCounts {
			par := RunCampaigns(campus, cfg, seed, 3, workers)
			if !reflect.DeepEqual(serial.Events, par.Events) {
				t.Fatalf("seed %d: workers=%d events differ from serial", seed, workers)
			}
			if !reflect.DeepEqual(serial.MeasEvents, par.MeasEvents) {
				t.Fatalf("seed %d: workers=%d measurement-event counts differ", seed, workers)
			}
		}
	}
}

func TestRunCampaignsMatchesSerialLadder(t *testing.T) {
	campus := deploy.New(42)
	cfg := shortCfg()
	want := &Campaign{MeasEvents: map[EventType]int{}}
	for seed := int64(1); seed <= 3; seed++ {
		c := RunCampaign(campus, cfg, seed)
		want.Events = append(want.Events, c.Events...)
		for k, v := range c.MeasEvents {
			want.MeasEvents[k] += v
		}
	}
	got := RunCampaigns(campus, cfg, 0, 3, 4)
	if !reflect.DeepEqual(want.Events, got.Events) {
		t.Fatal("RunCampaigns deviates from the serial RunCampaign ladder")
	}
	if !reflect.DeepEqual(want.MeasEvents, got.MeasEvents) {
		t.Fatal("RunCampaigns measurement-event totals deviate from the serial ladder")
	}
}

func TestRunCampaignsSeedSensitivity(t *testing.T) {
	campus := deploy.New(42)
	cfg := shortCfg()
	a := RunCampaigns(campus, cfg, 0, 2, 2)
	b := RunCampaigns(campus, cfg, 100, 2, 2)
	if reflect.DeepEqual(a.Events, b.Events) {
		t.Fatal("different seed ladders produced identical campaigns")
	}
}
