package fivegsim

import (
	"time"

	"fivegsim/internal/netsim"
	"fivegsim/internal/radio"
	"fivegsim/internal/video"
	"fivegsim/internal/web"
	"fivegsim/internal/wire"
)

func init() {
	register("F13", "RTT scatter: 4G vs 5G over 80 paths", runFig13)
	register("F14", "Per-hop RTT breakdown", runFig14)
	register("F15", "RTT vs path distance", runFig15)
	register("F16", "Page load time by website category", runFig16)
	register("F17", "Page load time vs image size", runFig17)
	register("F18", "Uplink video throughput by resolution", runFig18)
	register("F19", "5.7K video throughput fluctuation over 5G", runFig19)
	register("F20", "4K video telephony frame delay", runFig20)
}

func runFig13(cfg Config) Result {
	pairs := wire.RTTScatter(cfg.Seed, cfg.Workers)
	s := wire.Summarize(pairs)
	res := Result{
		Lines: []string{
			line("80 paths (4 sites × 20 servers)"),
			line("5G mean one-way latency: %.1f ms (paper 21.8 ms)", s.MeanOneWay5G.Seconds()*1000),
			line("mean RTT gap 4G−5G:      %.1f ms = %.1f%% (paper 22.3 ms, 31.86%%)",
				s.MeanRTTGap.Seconds()*1000, 100*s.GapFraction),
		},
		Values: map[string]float64{
			"oneWay5Gms": s.MeanOneWay5G.Seconds() * 1000,
			"gapMs":      s.MeanRTTGap.Seconds() * 1000,
		},
	}
	for i := 0; i < len(pairs); i += 17 {
		p := pairs[i]
		res.Lines = append(res.Lines, line("  e.g. %-28s %6.0f km: 4G %5.1f ms, 5G %5.1f ms",
			p.Server.Name, p.Server.DistanceKm, p.RTT4G.Seconds()*1000, p.RTT5G.Seconds()*1000))
	}
	return res
}

func runFig14(cfg Config) Result {
	nr := wire.HopBreakdown(radio.NR, cfg.Seed)
	lte := wire.HopBreakdown(radio.LTE, cfg.Seed)
	res := Result{Values: map[string]float64{}}
	for i := range nr {
		res.Lines = append(res.Lines, line("hop %d: 4G %6.2f ms   5G %6.2f ms", nr[i].Hop,
			lte[i].RTT.Seconds()*1000, nr[i].RTT.Seconds()*1000))
	}
	res.Lines = append(res.Lines,
		"paper: hop 1 (RAN) differs by ≈0.4 ms; the ≈20 ms reduction comes from hop 2 (flat 5G core)")
	res.Values["ranGapMs"] = (lte[0].RTT - nr[0].RTT).Seconds() * 1000
	res.Values["coreGapMs"] = (lte[1].RTT - nr[1].RTT).Seconds() * 1000
	return res
}

func runFig15(cfg Config) Result {
	bins := wire.RTTvsDistance(cfg.Seed, cfg.Workers)
	res := Result{Values: map[string]float64{}}
	for _, b := range bins {
		if b.RTT5G.N == 0 {
			continue
		}
		res.Lines = append(res.Lines, line("%5.0f–%5.0f km: 4G %6.1f ms   5G %6.1f ms   gap %5.1f ms",
			b.LoKm, b.HiKm, b.RTT4G.Mean, b.RTT5G.Mean, b.RTT4G.Mean-b.RTT5G.Mean))
	}
	res.Lines = append(res.Lines,
		"paper: RTT grows ≈5× from 100 to 2500 km; the constant ≈22 ms 5G advantage shrinks in relative terms")
	return res
}

// webPaths returns the 4G and 5G daytime paths the page loads of F16 and
// F17 start from, seeded with the run seed.
func webPaths(cfg Config) []netsim.PathConfig {
	paths := []netsim.PathConfig{cfg.obsPath(radio.LTE, true), cfg.obsPath(radio.NR, true)}
	for i := range paths {
		paths[i].Seed = cfg.Seed
	}
	return paths
}

func runFig16(cfg Config) Result {
	pages := 6
	if cfg.Quick {
		pages = 2
	}
	rows := web.RunFig16(pages, webPaths(cfg))
	res := Result{Values: map[string]float64{}}
	for _, r := range rows {
		res.Lines = append(res.Lines, line("%v %-9s: download %5.2f s + render %5.2f s = PLT %5.2f s",
			r.Tech, r.Category, r.Downloading.Seconds(), r.Rendering.Seconds(), r.PLT().Seconds()))
	}
	plt, dl := web.Reductions(rows)
	res.Lines = append(res.Lines, line("5G reduces PLT by %.1f%% (paper ≈5%%) and downloading by %.1f%% (paper 20.68%%)",
		100*plt, 100*dl))
	res.Values["pltReduction"] = plt
	res.Values["dlReduction"] = dl
	return res
}

func runFig17(cfg Config) Result {
	rows := web.RunFig17(webPaths(cfg))
	res := Result{Values: map[string]float64{}}
	for _, r := range rows {
		res.Lines = append(res.Lines, line("%v %2d MB: download %5.2f s + render %5.2f s",
			r.Tech, r.SizeMB, r.Downloading.Seconds(), r.Rendering.Seconds()))
	}
	res.Lines = append(res.Lines, "paper: rendering dominates large images on both technologies")
	return res
}

func videoDur(cfg Config) time.Duration {
	if cfg.Quick {
		return 10 * time.Second
	}
	return 30 * time.Second
}

func runFig18(cfg Config) Result {
	rows := video.RunFig18(videoDur(cfg), cfg.Seed)
	res := Result{Values: map[string]float64{}}
	for _, r := range rows {
		scene := "static"
		if r.Dynamic {
			scene = "dynamic"
		}
		res.Lines = append(res.Lines, line("%v %-5v %-7s: received %6.1f Mb/s", r.Tech, r.Res, scene, r.Received/1e6))
		res.Values[r.Tech.String()+r.Res.String()+scene] = r.Received
	}
	res.Lines = append(res.Lines, "paper: every resolution fits the 5G uplink; 4G cannot support 5.7K")
	return res
}

func runFig19(cfg Config) Result {
	dyn := video.Run(video.R57K, radio.NR, true, videoDur(cfg), cfg.Seed)
	static := video.Run(video.R57K, radio.NR, false, videoDur(cfg), cfg.Seed)
	res := Result{Values: map[string]float64{
		"freezes": float64(dyn.Freezes),
	}}
	ds := dyn.ThroughputSeries(time.Second)
	ss := static.ThroughputSeries(time.Second)
	for i := 0; i < len(ds) && i < len(ss); i += 3 {
		res.Lines = append(res.Lines, line("t=%2ds: static %5.1f Mb/s   dynamic %5.1f Mb/s", i, ss[i]/1e6, ds[i]/1e6))
	}
	res.Lines = append(res.Lines, line("dynamic freezes: %d (paper finds 6 in a 30 s session); static: %d",
		dyn.Freezes, static.Freezes))
	return res
}

func runFig20(cfg Config) Result {
	nr := video.Run(video.R4K, radio.NR, false, videoDur(cfg), cfg.Seed)
	lte := video.Run(video.R4K, radio.LTE, false, videoDur(cfg), cfg.Seed)
	proc := video.ProcessingLatency()
	network := nr.MeanFrameDelay() - proc - video.PlayoutBuffer
	return Result{
		Lines: []string{
			line("5G frame delay: %v (paper ≈950 ms, vs the 460 ms real-time budget)", nr.MeanFrameDelay().Round(time.Millisecond)),
			line("4G frame delay: %v (congestion at 4K)", lte.MeanFrameDelay().Round(time.Millisecond)),
			line("pipeline: capture/splice/render 440 ms + encode 160 ms + decode 50 ms = %v", proc),
			line("network share ≈%v — processing is ≈%.0f× the transmission time (paper 10×)",
				network.Round(time.Millisecond), float64(proc)/float64(network)),
		},
		Values: map[string]float64{
			"delay5Gms": nr.MeanFrameDelay().Seconds() * 1000,
			"delay4Gms": lte.MeanFrameDelay().Seconds() * 1000,
		},
	}
}
