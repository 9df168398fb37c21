package handoff

import (
	"math"
	"time"

	"fivegsim/internal/deploy"
	"fivegsim/internal/geom"
	"fivegsim/internal/par"
	"fivegsim/internal/radio"
	"fivegsim/internal/rng"
)

// Event is one recorded hand-off.
type Event struct {
	Kind       Kind
	At         time.Duration
	FromPCI    int
	ToPCI      int
	RSRQBefore float64 // serving-link RSRQ at trigger time
	RSRQAfter  float64 // new serving-link RSRQ once the hand-off completes
	Latency    time.Duration
	Trace      []TraceStep
}

// Gain is the RSRQ improvement delivered by the hand-off.
func (e Event) Gain() float64 { return e.RSRQAfter - e.RSRQBefore }

// Campaign is the result of a walking measurement run, the analogue of the
// paper's 80-minute, 407-event dataset.
type Campaign struct {
	Events     []Event
	MeasEvents map[EventType]int
	// On4G is the total time the UE spent without an NR secondary
	// (4G-only dwell) — the degraded-path exposure a coverage hole
	// inflicts.
	On4G time.Duration
}

// ByKind returns the events of one kind.
func (c *Campaign) ByKind(k Kind) []Event {
	var out []Event
	for _, e := range c.Events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// Gains returns the RSRQ gains of all events of a kind (Fig. 5 series).
func (c *Campaign) Gains(k Kind) []float64 {
	events := c.ByKind(k)
	out := make([]float64, len(events))
	for i, e := range events {
		out[i] = e.Gain()
	}
	return out
}

// Latencies returns the hand-off latencies in milliseconds for a kind
// (Fig. 6 series).
func (c *Campaign) Latencies(k Kind) []float64 {
	events := c.ByKind(k)
	out := make([]float64, len(events))
	for i, e := range events {
		out[i] = float64(e.Latency) / float64(time.Millisecond)
	}
	return out
}

// The walk and measurement model every campaign shares, after the
// paper's methodology: 100 ms sampling at walking or cycling speed
// (3–10 km/h).
const (
	sampleInterval = 100 * time.Millisecond
	minSpeedKmh    = 3
	maxSpeedKmh    = 10
	// noiseStdDB is the fast-fading measurement noise on each RSRQ sample.
	noiseStdDB = 0.8
	// nrDropRSRP / nrAddRSRP are the hysteresis thresholds for releasing
	// and re-adding the NR leg (vertical hand-offs).
	nrDropRSRP = radio.ServiceThresholdDBm
	nrAddRSRP  = radio.ServiceThresholdDBm + 20
)

// Config parametrizes a campaign.
type Config struct {
	Duration time.Duration
	A3       A3Config
	// CellDown, when non-nil, reports cells failed at a campaign time —
	// the fault layer's coverage-hole predicate (fault.Plan.CellDown).
	// Downed cells vanish from the measurement set (no service, no
	// interference), so the walker hands off around the hole. Nil keeps
	// the exact pre-fault behaviour.
	CellDown func(pci int, at time.Duration) bool
}

// DefaultConfig mirrors the paper's methodology: an 80-minute walk under
// the ISP's A3 configuration.
func DefaultConfig() Config {
	return Config{
		Duration: 80 * time.Minute,
		A3:       DefaultA3(),
	}
}

// ueState is the walker's dual-connectivity state.
type ueState struct {
	ltePCI int // master eNB cell (always attached)
	nrPCI  int // NR secondary cell, or -1 when on 4G only
}

// RunCampaign walks the campus and records every hand-off. The UE is an
// NSA phone: it always holds an LTE master cell and attaches an NR
// secondary whenever 5G coverage permits, exactly the setup whose mobility
// behaviour §3.4 dissects.
func RunCampaign(campus *deploy.Campus, cfg Config, seed int64) *Campaign {
	src := rng.New(seed)
	walkRng := src.Stream("handoff.walk")
	noiseRng := src.Stream("handoff.noise")
	sigRng := src.Stream("handoff.signaling")

	out := &Campaign{MeasEvents: map[EventType]int{}}

	// Waypoint walker state.
	pos := geom.Point{X: 250, Y: 100}
	target := campus.RoadPoint(walkRng.Float64() * campus.RoadLengthM())
	speed := rng.Uniform(walkRng, minSpeedKmh, maxSpeedKmh) / 3.6

	st := ueState{ltePCI: -1, nrPCI: -1}
	nrTracker := NewA3Tracker(cfg.A3)
	lteTracker := NewA3Tracker(cfg.A3)
	var nrBelowFor, nrAboveFor time.Duration
	// Previous-tick condition flags for edge-triggered event counting.
	prevCond := map[EventType]bool{}

	noise := func() float64 { return noiseRng.NormFloat64() * noiseStdDB }

	// Walker-owned measurement buffers: the per-tick measurements and the
	// rarer post-hand-off re-measurements append into these instead of
	// allocating fresh slices ~20 times per simulated second.
	nrBuf := make([]radio.Measurement, 0, 40)
	lteBuf := make([]radio.Measurement, 0, 40)
	hoBuf := make([]radio.Measurement, 0, 40)

	// executeHO draws the kind's signaling ladder, walks the UE on
	// through the interruption, and records the event with the new
	// serving cell's RSRQ re-measured on the technology the kind hands
	// off to.
	var now time.Duration
	executeHO := func(kind Kind, from, to int, before float64) {
		steps := Procedure(kind)
		trace, latency := Execute(steps, sigRng, make([]TraceStep, 0, len(steps)))
		// The UE keeps moving during the interruption.
		pos = pos.Add(target.Sub(pos).Scale(math.Min(1, speed*latency.Seconds()/math.Max(pos.Dist(target), 1e-9))))
		tech := radio.NR
		if kind == FourToFour || kind == FiveToFour {
			tech = radio.LTE
		}
		serv, _ := pick(campus.MeasureAllInto(tech, pos, hoBuf[:0]), to)
		out.Events = append(out.Events, Event{
			Kind: kind, At: now, FromPCI: from, ToPCI: to,
			RSRQBefore: before, RSRQAfter: serv.RSRQdB + noise(),
			Latency: latency, Trace: trace,
		})
	}

	for now = 0; now < cfg.Duration; now += sampleInterval {
		// Move.
		step := speed * sampleInterval.Seconds()
		if pos.Dist(target) <= step {
			pos = target
			target = campus.RoadPoint(walkRng.Float64() * campus.RoadLengthM())
			speed = rng.Uniform(walkRng, minSpeedKmh, maxSpeedKmh) / 3.6
		} else {
			dir := target.Sub(pos)
			norm := math.Hypot(dir.X, dir.Y)
			pos = pos.Add(dir.Scale(step / norm))
		}

		nr := measureLive(campus, radio.NR, pos, cfg.CellDown, now, nrBuf[:0])
		lte := measureLive(campus, radio.LTE, pos, cfg.CellDown, now, lteBuf[:0])
		nrBuf, lteBuf = nr[:0], lte[:0]
		if st.ltePCI < 0 {
			// Initial attach (first tick only): camp on the strongest
			// cells without recording hand-off events.
			st.ltePCI = lte[0].PCI
			if nr[0].Usable() {
				st.nrPCI = nr[0].PCI
			}
		}
		lteServing, lteBest := pick(lte, st.ltePCI)
		nrServing, nrBest := pick(nr, st.nrPCI)

		lteServRSRQ := lteServing.RSRQdB + noise()
		lteBestRSRQ := lteBest.RSRQdB + noise()
		nrServRSRQ := nrServing.RSRQdB + noise()
		nrBestRSRQ := nrBest.RSRQdB + noise()

		// Table 5 measurement-event bookkeeping (edge triggered).
		servRSRQ := lteServRSRQ
		if st.nrPCI >= 0 {
			servRSRQ = nrServRSRQ
		}
		const hyst = 1.5 // reporting hysteresis, dB
		markEvent(out, prevCond, A1, servRSRQ > A1ThresholdDB+hyst, servRSRQ < A1ThresholdDB-hyst)
		markEvent(out, prevCond, A2, servRSRQ < A2ThresholdDB-hyst, servRSRQ > A2ThresholdDB+hyst)
		markEvent(out, prevCond, A5,
			servRSRQ < A5Threshold1-hyst && nrBestRSRQ > A5Threshold2+hyst,
			servRSRQ > A5Threshold1+hyst || nrBestRSRQ < A5Threshold2-hyst)
		markEvent(out, prevCond, B1,
			st.nrPCI < 0 && nr[0].RSRPdBm > nrAddRSRP+1,
			st.nrPCI >= 0 || nr[0].RSRPdBm < nrAddRSRP-4)
		gap := lteBestRSRQ - lteServRSRQ
		if st.nrPCI >= 0 {
			gap = nrBestRSRQ - nrServRSRQ
		}
		markEvent(out, prevCond, A3, gap > cfg.A3.GapDB, gap < cfg.A3.GapDB-hyst)

		if st.nrPCI >= 0 {
			// Horizontal NR hand-off via A3.
			if nrBest.PCI != st.nrPCI &&
				nrTracker.Observe(nrServRSRQ, nrBestRSRQ, sampleInterval) {
				executeHO(FiveToFive, st.nrPCI, nrBest.PCI, nrServRSRQ)
				st.nrPCI = nrBest.PCI
				nrTracker.Reset()
			}
			// Vertical release when NR coverage collapses.
			if nrServing.RSRPdBm < nrDropRSRP {
				nrBelowFor += sampleInterval
			} else {
				nrBelowFor = 0
			}
			if nrBelowFor >= 500*time.Millisecond {
				executeHO(FiveToFour, st.nrPCI, st.ltePCI, nrServRSRQ)
				st.nrPCI = -1
				nrBelowFor = 0
				nrTracker.Reset()
			}
		} else {
			// Vertical addition when NR coverage returns (B1-like rule).
			// The UE attaches to the strongest NR cell.
			if nr[0].RSRPdBm > nrAddRSRP {
				nrAboveFor += sampleInterval
			} else {
				nrAboveFor = 0
			}
			if nrAboveFor >= 500*time.Millisecond {
				executeHO(FourToFive, st.ltePCI, nr[0].PCI, lteServRSRQ)
				st.nrPCI = nr[0].PCI
				nrAboveFor = 0
			}
		}

		// Master-eNB hand-off via A3 (counts as 4G-4G).
		if lteBest.PCI != st.ltePCI &&
			lteTracker.Observe(lteServRSRQ, lteBestRSRQ, sampleInterval) {
			executeHO(FourToFour, st.ltePCI, lteBest.PCI, lteServRSRQ)
			st.ltePCI = lteBest.PCI
			lteTracker.Reset()
		}

		if st.nrPCI < 0 {
			out.On4G += sampleInterval
		}
	}
	return out
}

// measureLive measures every live cell at pos: with no CellDown
// predicate it is exactly MeasureAll; otherwise downed cells are
// filtered out via the campus's MeasureAvailable view. Should every
// cell of a technology be down, a single dead sentinel (unusable, far
// below every trigger threshold) keeps the serving-cell bookkeeping
// well-defined.
func measureLive(campus *deploy.Campus, t radio.Tech, pos geom.Point, down func(int, time.Duration) bool, at time.Duration, buf []radio.Measurement) []radio.Measurement {
	if down == nil {
		return campus.MeasureAllInto(t, pos, buf)
	}
	ms := campus.MeasureAvailableInto(t, pos, func(pci int) bool { return down(pci, at) }, buf)
	if len(ms) == 0 {
		ms = append(ms, radio.Measurement{PCI: -1, Tech: t, RSRPdBm: -200, RSRQdB: -40, SINRdB: -30})
	}
	return ms
}

// RunCampaigns runs n independent walks — walk i is RunCampaign with
// seed+1+i, the same seed ladder the paper-facade campaign always used —
// across up to workers goroutines, and merges them in walk order. Each
// walk derives every substream from its own seed, so the merged campaign
// is identical for every worker count.
func RunCampaigns(campus *deploy.Campus, cfg Config, seed int64, n, workers int) *Campaign {
	camps := par.Map(workers, n, func(i int) *Campaign {
		return RunCampaign(campus, cfg, seed+1+int64(i))
	})
	all := &Campaign{MeasEvents: map[EventType]int{}}
	for _, c := range camps {
		all.Events = append(all.Events, c.Events...)
		all.On4G += c.On4G
		for k, v := range c.MeasEvents {
			all.MeasEvents[k] += v
		}
	}
	return all
}

// markEvent counts a measurement-report event with hysteresis: the event
// fires when enter becomes true while disarmed, and re-arms only once exit
// becomes true (UEs report event-triggered measurements exactly this way,
// which is why the paper can tabulate an event mix at all).
func markEvent(c *Campaign, armed map[EventType]bool, e EventType, enter, exit bool) {
	if armed[e] {
		if exit {
			armed[e] = false
		}
		return
	}
	if enter {
		c.MeasEvents[e]++
		armed[e] = true
	}
}

// noNeighbor is pick's best neighbour when only one cell is measured:
// no real cell has its PCI, and its -Inf levels satisfy neither A3 nor A5.
var noNeighbor = radio.Measurement{PCI: -1, RSRPdBm: math.Inf(-1), RSRQdB: math.Inf(-1)}

// pick returns the measurement of the serving PCI and the strongest other
// cell ("best neighbor"), or noNeighbor when there is none. If the
// serving PCI is absent the strongest cell stands in for it.
func pick(ms []radio.Measurement, servingPCI int) (serving, bestNeighbor radio.Measurement) {
	serving, bestNeighbor = ms[0], noNeighbor
	found := false
	for _, m := range ms {
		if m.PCI == servingPCI {
			serving = m
			found = true
			break
		}
	}
	for _, m := range ms {
		if found && m.PCI == servingPCI {
			continue
		}
		if !found && m.PCI == serving.PCI {
			continue
		}
		bestNeighbor = m
		break
	}
	return serving, bestNeighbor
}

// CaseStudySample is one tick of the Fig. 4 RSRQ-evolution trace.
type CaseStudySample struct {
	At         time.Duration
	ServingPCI int
	RSRQ       map[int]float64 // tracked PCIs → RSRQ
}

// CaseStudy reproduces Fig. 4: a walk past the gNB site carrying cells 226
// and 44, recording the serving cell and the RSRQ of the tracked PCIs. The
// returned hand-off index marks the sample at which serving switches.
func CaseStudy(campus *deploy.Campus, seed int64) (series []CaseStudySample, hoIndex int) {
	site := campus.CellByPCI(226).Pos
	// Walk a straight line through the site's sector boundary.
	from := site.Add(geom.Point{X: -90, Y: -60})
	to := site.Add(geom.Point{X: 95, Y: 70})
	noiseRng := rng.New(seed).Stream("handoff.case")
	tracked := []int{226, 44, 441}
	cfg := DefaultA3()
	tracker := NewA3Tracker(cfg)
	serving := 226
	hoIndex = -1
	const ticks = 150
	nrBuf := make([]radio.Measurement, 0, 40)
	for i := 0; i <= ticks; i++ {
		p := from.Lerp(to, float64(i)/ticks)
		sample := CaseStudySample{
			At:         time.Duration(i) * 100 * time.Millisecond,
			ServingPCI: serving,
			RSRQ:       map[int]float64{},
		}
		var servRSRQ, bestRSRQ float64
		bestPCI := serving
		nr := campus.MeasureAllInto(radio.NR, p, nrBuf[:0])
		for _, m := range nr {
			for _, pci := range tracked {
				if m.PCI == pci {
					sample.RSRQ[pci] = m.RSRQdB + noiseRng.NormFloat64()*0.5
				}
			}
			if m.PCI == serving {
				servRSRQ = m.RSRQdB
			}
		}
		for _, m := range nr {
			if m.PCI != serving {
				bestRSRQ = m.RSRQdB
				bestPCI = m.PCI
				break
			}
		}
		if hoIndex < 0 && tracker.Observe(servRSRQ, bestRSRQ, 100*time.Millisecond) {
			serving = bestPCI
			hoIndex = i
		}
		sample.ServingPCI = serving
		series = append(series, sample)
	}
	return series, hoIndex
}
