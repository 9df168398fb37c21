package wire

import (
	"math"
	"time"

	"fivegsim/internal/par"
	"fivegsim/internal/radio"
	"fivegsim/internal/rng"
	"fivegsim/internal/stats"
)

// Latency model calibration (§4.4): the 5G access RTT (RAN + flat core +
// metro) is ≈10.5 ms; the legacy 4G core adds ≈22 ms of RTT ("the flatten
// architecture ... reduces latency by 20 ms" plus the slower 4G air
// interface); the wire adds ≈26.5 µs of RTT per kilometre (fibre at 2/3 c
// with ≈2.7× routing inflation) and ≈0.8 ms per transit router.
const (
	accessRTT5G = 10500 * time.Microsecond
	coreExtra4G = 22300 * time.Microsecond
	perKmRTT    = 26.5 * float64(time.Microsecond)
	perHopRTT   = 800 * time.Microsecond
)

// ranRTT returns the hop-1 round trip of Fig. 14: 2.19 ms (5G) vs 2.6 ms
// (4G).
func ranRTT(t radio.Tech) time.Duration {
	if t == radio.NR {
		return 2190 * time.Microsecond
	}
	return 2600 * time.Microsecond
}

// HopCount returns the transit router count to a target at the given
// distance (grows with distance like real interprovince paths).
func HopCount(distanceKm float64) int {
	if distanceKm < 0 {
		distanceKm = 0
	}
	return 4 + int(math.Round(2.2*math.Log10(1+distanceKm/8)))
}

// BaseRTT returns the deterministic RTT to a target at distanceKm over
// the given technology.
func BaseRTT(t radio.Tech, distanceKm float64) time.Duration {
	rtt := accessRTT5G +
		time.Duration(perKmRTT*distanceKm) +
		time.Duration(HopCount(distanceKm)-4)*perHopRTT
	if t == radio.LTE {
		rtt += coreExtra4G
	}
	return rtt
}

// MeasureServer draws n traceroute-style RTT probes to one server
// (queueing jitter is log-normal around the base).
func MeasureServer(t radio.Tech, s Server, n int, seed int64) []time.Duration {
	return MeasureServerDegraded(t, s, n, seed, Degradation{})
}

// Degradation models a browned-out wired segment as probes see it:
// ExtraRTT of deterministic inflation (rerouting, upstream queueing)
// plus a multiplicative JitterScale on the log-normal queueing term (a
// segment draining at reduced rate queues proportionally longer). The
// zero value is no degradation; JitterScale 0 means 1.
type Degradation struct {
	ExtraRTT    time.Duration
	JitterScale float64
}

// MeasureServerDegraded is MeasureServer through a degraded segment.
// The probe stream and draw sequence are identical to the clean
// measurement, so a zero Degradation reproduces MeasureServer byte for
// byte and a (seed, Degradation) pair is deterministic.
func MeasureServerDegraded(t radio.Tech, s Server, n int, seed int64, deg Degradation) []time.Duration {
	r := rng.New(seed).Stream("wire." + s.Name + t.String())
	base := BaseRTT(t, s.DistanceKm) + deg.ExtraRTT
	scale := deg.JitterScale
	if scale == 0 {
		scale = 1
	}
	out := make([]time.Duration, n)
	for i := range out {
		jitter := rng.LogNormal(r, math.Log(1.5), 0.8) * scale // ms of queueing
		out[i] = base + time.Duration(jitter*float64(time.Millisecond))
	}
	return out
}

// Fig13Pair is one scatter point: the 4G and 5G RTT of the same path.
type Fig13Pair struct {
	Server Server
	RTT4G  time.Duration
	RTT5G  time.Duration
}

// RTTScatter reproduces Fig. 13: for each of the 20 servers measured from
// 4 gNB/eNB sites (80 paths), the mean 4G vs 5G RTT over 30 probes. The
// paths are probed across up to workers goroutines (0 = GOMAXPROCS);
// every path's probe stream is keyed by (site, server), so the scatter
// is identical for any worker count.
func RTTScatter(seed int64, workers int) []Fig13Pair {
	const sites = 4
	return par.Map(workers, sites*len(Servers), func(k int) Fig13Pair {
		site, s := k/len(Servers), Servers[k%len(Servers)]
		p4 := MeasureServer(radio.LTE, s, 30, seed+int64(site*1000+s.ID))
		p5 := MeasureServer(radio.NR, s, 30, seed+int64(site*1000+s.ID)+7)
		return Fig13Pair{
			Server: s,
			RTT4G:  MeanRTT(p4),
			RTT5G:  MeanRTT(p5),
		}
	})
}

// MeanRTT returns the mean round-trip time of a probe series.
func MeanRTT(rtts []time.Duration) time.Duration {
	var sum time.Duration
	for _, rtt := range rtts {
		sum += rtt
	}
	return sum / time.Duration(len(rtts))
}

// ScatterSummary aggregates the Fig. 13 headline numbers.
type ScatterSummary struct {
	MeanOneWay5G time.Duration // paper: 21.8 ms
	MeanRTTGap   time.Duration // paper: 22.3 ms (31.86 %)
	GapFraction  float64
}

// Summarize computes the §4.4 overview statistics from the scatter.
func Summarize(pairs []Fig13Pair) ScatterSummary {
	var sum5, gap, sum4 time.Duration
	for _, p := range pairs {
		sum5 += p.RTT5G
		sum4 += p.RTT4G
		gap += p.RTT4G - p.RTT5G
	}
	n := time.Duration(len(pairs))
	out := ScatterSummary{
		MeanOneWay5G: sum5 / n / 2,
		MeanRTTGap:   gap / n,
	}
	if sum4 > 0 {
		out.GapFraction = float64(gap) / float64(sum4)
	}
	return out
}

// HopRTT is one rung of the Fig. 14 per-hop RTT ladder.
type HopRTT struct {
	Hop int
	RTT time.Duration
}

// HopBreakdown reproduces Fig. 14: cumulative traceroute RTT over the
// 8-hop example path. Hop 1 is the RAN, hop 2 the cellular core (where the
// 5G flat architecture wins ≈20 ms), hops 3–8 the wired Internet.
func HopBreakdown(t radio.Tech, seed int64) []HopRTT {
	r := rng.New(seed).Stream("wire.hops" + t.String())
	out := []HopRTT{{Hop: 1, RTT: ranRTT(t) + time.Duration(rng.ClampedNormal(r, 0, 0.2, -0.3, 0.3)*float64(time.Millisecond))}}
	core := accessRTT5G - ranRTT(radio.NR) - 4*time.Millisecond // metro share stays in later hops
	if t == radio.LTE {
		core += coreExtra4G
	}
	cum := out[0].RTT + core
	out = append(out, HopRTT{Hop: 2, RTT: cum})
	// Six wired hops of the same-city example path (≈30 km total).
	perHop := []float64{1.2, 0.9, 1.4, 1.1, 0.8, 1.6}
	for i, ms := range perHop {
		cum += time.Duration((ms + rng.ClampedNormal(r, 0, 0.25, -0.5, 0.5)) * float64(time.Millisecond))
		out = append(out, HopRTT{Hop: 3 + i, RTT: cum})
	}
	return out
}

// DistanceBin is one Fig. 15 x-axis group.
type DistanceBin struct {
	LoKm, HiKm float64
	RTT4G      stats.Summary
	RTT5G      stats.Summary
}

// RTTvsDistance reproduces Fig. 15: RTT grouped by path distance. The
// per-server probe sweeps run across up to workers goroutines; probe
// streams are keyed per server, and binning walks the servers in catalog
// order, so the bins are identical for any worker count.
func RTTvsDistance(seed int64, workers int) []DistanceBin {
	edges := []float64{0, 200, 600, 1200, 1800, 2500, 3500}
	bins := make([]DistanceBin, len(edges)-1)
	for i := range bins {
		bins[i] = DistanceBin{LoKm: edges[i], HiKm: edges[i+1]}
	}
	collect := func(t radio.Tech) map[int][]float64 {
		probes := par.Map(workers, len(Servers), func(k int) []time.Duration {
			return MeasureServer(t, Servers[k], 30, seed+int64(Servers[k].ID))
		})
		m := map[int][]float64{}
		for k, s := range Servers {
			for _, rtt := range probes[k] {
				for i := range bins {
					if s.DistanceKm >= bins[i].LoKm && s.DistanceKm < bins[i].HiKm {
						m[i] = append(m[i], float64(rtt)/float64(time.Millisecond))
					}
				}
			}
		}
		return m
	}
	m4 := collect(radio.LTE)
	m5 := collect(radio.NR)
	for i := range bins {
		bins[i].RTT4G = stats.Summarize(m4[i])
		bins[i].RTT5G = stats.Summarize(m5[i])
	}
	return bins
}
