// Command fgperf is the iperf3-equivalent load generator for the
// simulated paths: UDP baselines, rate sweeps, and TCP bulk flows under
// any of the five congestion-control algorithms.
//
//	fgperf -tech 5g -cc bbr -t 20s
//	fgperf -tech 4g -udp -rate 100M -t 10s
//	fgperf -tech 5g -udp -baseline
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"strconv"
	"strings"
	"time"

	"fivegsim/internal/cc"
	"fivegsim/internal/netsim"
	"fivegsim/internal/radio"
	"fivegsim/internal/transport"
)

func main() {
	techFlag := flag.String("tech", "5g", "radio technology: 4g or 5g")
	ccName := flag.String("cc", "bbr", "congestion control: "+strings.Join(cc.Names(), ", "))
	udp := flag.Bool("udp", false, "run UDP instead of TCP")
	baseline := flag.Bool("baseline", false, "with -udp: measure the peak deliverable rate")
	bps := 500e6
	flag.Func("rate", "with -udp: offered `rate`, e.g. 250M or 1G (default 500M)", func(s string) (err error) {
		bps, err = parseRate(s)
		return err
	})
	duration := 15 * time.Second
	flag.Func("t", "run `duration` (default 15s)", func(s string) (err error) {
		duration, err = parseDuration(s)
		return err
	})
	night := flag.Bool("night", false, "late-night load profile")
	seed := flag.Int64("seed", 1, "seed")
	flag.Parse()

	tech := radio.NR
	if strings.EqualFold(*techFlag, "4g") || strings.EqualFold(*techFlag, "lte") {
		tech = radio.LTE
	}
	cfg := netsim.DefaultPath(tech, !*night)
	cfg.Seed = *seed

	switch {
	case *udp && *baseline:
		r := netsim.UDPBaseline(cfg, duration)
		fmt.Printf("%v UDP baseline: %.1f Mb/s (loss %.2f%%, offered %.1f Mb/s)\n",
			tech, r.DeliveredBps/1e6, 100*r.LossRate, r.OfferedBps/1e6)
	case *udp:
		r := netsim.RunUDP(cfg, bps, duration, false)
		fmt.Printf("%v UDP at %.1f Mb/s for %v: delivered %.1f Mb/s, loss %.2f%%\n",
			tech, bps/1e6, duration, r.DeliveredBps/1e6, 100*r.LossRate)
	default:
		if cc.New(*ccName) == nil {
			log.Fatalf("fgperf: unknown congestion control %q (have %s)", *ccName, strings.Join(cc.Names(), ", "))
		}
		r := transport.RunBulk(cfg, *ccName, duration)
		fmt.Printf("%v TCP/%s for %v:\n", tech, *ccName, duration)
		fmt.Printf("  throughput:      %.1f Mb/s (%.1f%% of the radio goodput)\n",
			r.ThroughputBps/1e6, 100*r.ThroughputBps/cfg.RANRateBps)
		fmt.Printf("  retransmissions: %d (loss events %d, RTOs %d)\n", r.Retransmits, r.LossEvents, r.RTOs)
		fmt.Printf("  smoothed RTT:    %v\n", r.MeanRTT.Round(time.Millisecond))
	}
}

// parseRate parses "880M", "1.2G", "5000000" into bits per second. It
// rejects any rate RunUDP cannot pace: its self-rearming send event
// fires once per datagram interval, so an interval that truncates to
// 0 ns (or is negative, NaN or past time.Duration's range) would never
// advance simulated time and the run would not return.
func parseRate(s string) (float64, error) {
	num, mult := s, 1.0
	switch {
	case strings.HasSuffix(s, "G"):
		num, mult = strings.TrimSuffix(s, "G"), 1e9
	case strings.HasSuffix(s, "M"):
		num, mult = strings.TrimSuffix(s, "M"), 1e6
	case strings.HasSuffix(s, "K"):
		num, mult = strings.TrimSuffix(s, "K"), 1e3
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, errors.New("want a number with an optional K, M or G suffix")
	}
	bps := v * mult
	if !(bps > 0) || math.IsInf(bps, 1) {
		return 0, errors.New("rate must be finite and positive")
	}
	if ns := float64((netsim.MSS+netsim.HeaderBytes)*8) / bps * float64(time.Second); ns < 1 || ns >= math.MaxInt64 {
		return 0, fmt.Errorf("datagram send interval %.3g ns rounds to 0 or overflows time.Duration", ns)
	}
	return bps, nil
}

// parseDuration parses a run duration; a non-positive one has no
// throughput to report.
func parseDuration(s string) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err == nil && d <= 0 {
		err = errors.New("duration must be positive")
	}
	return d, err
}
