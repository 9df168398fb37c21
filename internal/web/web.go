// Package web implements the §5.1 page-load study: an HTML5 site corpus
// (search / image / shopping / map / video categories), downloads over the
// simulated network with HTTP/2 + BBR (the paper's configuration), a fetch
// dependency chain, and a device rendering model. The headline findings it
// reproduces: 5G cuts PLT by only ≈5 % because rendering dominates, and
// even the downloading share shrinks by only ≈20 % because short flows end
// long before TCP converges.
package web

import (
	"time"

	"fivegsim/internal/netsim"
	"fivegsim/internal/radio"
	"fivegsim/internal/rng"
	"fivegsim/internal/transport"
)

// Page describes one test page.
type Page struct {
	Category string
	// Bytes is the total transferred content size.
	Bytes int64
	// ChainDepth counts sequential request dependencies (HTML → CSS →
	// fonts → scripts → API calls), each costing an RTT plus server think
	// time even on an infinite pipe.
	ChainDepth int
	// ServerThink is the per-chain-step backend latency.
	ServerThink time.Duration
	// RenderBase is the device-side parse/layout/paint time, which no
	// network can reduce.
	RenderBase time.Duration
}

// Corpus returns the Fig. 16 category mix (10 pages per category are
// sampled around these profiles).
func Corpus() []Page {
	return []Page{
		{Category: "Search", Bytes: 600 << 10, ChainDepth: 6, ServerThink: 150 * time.Millisecond, RenderBase: 1250 * time.Millisecond},
		{Category: "Image", Bytes: 3 << 20, ChainDepth: 7, ServerThink: 140 * time.Millisecond, RenderBase: 2100 * time.Millisecond},
		{Category: "Shopping", Bytes: 2500 << 10, ChainDepth: 10, ServerThink: 160 * time.Millisecond, RenderBase: 3300 * time.Millisecond},
		{Category: "Map", Bytes: 4 << 20, ChainDepth: 9, ServerThink: 150 * time.Millisecond, RenderBase: 4100 * time.Millisecond},
		{Category: "Video", Bytes: 5 << 20, ChainDepth: 8, ServerThink: 145 * time.Millisecond, RenderBase: 2600 * time.Millisecond},
	}
}

// LoadResult is one measured page load (the Chrome-devtools split the
// paper uses: content downloading vs page rendering).
type LoadResult struct {
	Downloading time.Duration
	Rendering   time.Duration
}

// Load fetches one page over a fresh path built from cfg using HTTP/2 +
// BBR and returns the download/render split. cfg.Seed also keys the
// render-time draw.
func Load(page Page, cfg netsim.PathConfig) LoadResult {
	rtt := cfg.BaseRTT()

	// TCP + TLS handshakes (HTTP/2 over TLS 1.2: 2 round trips), then the
	// request dependency chain, then the bulk of the bytes over the
	// simulated transport (slow-start transient included).
	setup := 2 * rtt
	chain := time.Duration(page.ChainDepth) * (rtt + page.ServerThink)
	transfer, ok := transport.RunTransfer(cfg, "bbr", page.Bytes, 60*time.Second)
	if !ok {
		transfer = 60 * time.Second
	}
	r := rng.New(cfg.Seed).Stream("web.render")
	render := page.RenderBase +
		time.Duration(rng.ClampedNormal(r, 0, 40, -100, 100)*float64(time.Millisecond)) +
		// Decode/layout cost grows with content size (140 ms/MB on the
		// phone-class device; F16 and F17 are calibrated with it).
		time.Duration(float64(page.Bytes)/float64(1<<20)*140*float64(time.Millisecond))
	return LoadResult{
		Downloading: setup + chain + transfer,
		Rendering:   render,
	}
}

// CategoryResult aggregates Fig. 16's per-category bars.
type CategoryResult struct {
	Category    string
	Tech        radio.Tech
	Downloading time.Duration
	Rendering   time.Duration
	N           int
}

// PLT returns the mean page-load time of the category.
func (c CategoryResult) PLT() time.Duration { return c.Downloading + c.Rendering }

// RunFig16 loads pagesPerCategory variants of every category over each
// path and returns the per-category means in path order. A path's Seed
// keys its page variants; page i of a category loads over the path
// reseeded to Seed+31i+len(category).
func RunFig16(pagesPerCategory int, paths []netsim.PathConfig) []CategoryResult {
	var out []CategoryResult
	for _, path := range paths {
		for _, base := range Corpus() {
			agg := CategoryResult{Category: base.Category, Tech: path.Tech}
			r := rng.New(path.Seed).Stream("web.variants." + base.Category)
			for i := 0; i < pagesPerCategory; i++ {
				p := base
				p.Bytes = int64(float64(p.Bytes) * rng.Uniform(r, 0.8, 1.25))
				pc := path
				pc.Seed += int64(i)*31 + int64(len(base.Category))
				res := Load(p, pc)
				agg.Downloading += res.Downloading
				agg.Rendering += res.Rendering
				agg.N++
			}
			agg.Downloading /= time.Duration(agg.N)
			agg.Rendering /= time.Duration(agg.N)
			out = append(out, agg)
		}
	}
	return out
}

// ImageResult is one Fig. 17 bar: PLT split for a single image of the
// given size.
type ImageResult struct {
	SizeMB      int
	Tech        radio.Tech
	Downloading time.Duration
	Rendering   time.Duration
}

// RunFig17 loads single-image pages of 1–16 MB over each path, in path
// order; the m MB page loads over the path reseeded to Seed+m.
func RunFig17(paths []netsim.PathConfig) []ImageResult {
	var out []ImageResult
	for _, path := range paths {
		for _, mb := range []int{1, 2, 4, 8, 16} {
			p := Page{
				Category: "Image", Bytes: int64(mb) << 20, ChainDepth: 2,
				ServerThink: 40 * time.Millisecond,
				RenderBase:  150 * time.Millisecond,
			}
			pc := path
			pc.Seed += int64(mb)
			res := Load(p, pc)
			out = append(out, ImageResult{
				SizeMB: mb, Tech: path.Tech,
				Downloading: res.Downloading, Rendering: res.Rendering,
			})
		}
	}
	return out
}

// Reductions summarizes the paper's two headline percentages from a
// Fig. 16 run: the total-PLT reduction (≈5 %) and the downloading-only
// reduction (≈20.68 %) going from 4G to 5G.
func Reductions(results []CategoryResult) (plt, downloading float64) {
	var plt4, plt5, dl4, dl5 float64
	for _, r := range results {
		if r.Tech == radio.LTE {
			plt4 += r.PLT().Seconds()
			dl4 += r.Downloading.Seconds()
		} else {
			plt5 += r.PLT().Seconds()
			dl5 += r.Downloading.Seconds()
		}
	}
	return 1 - plt5/plt4, 1 - dl5/dl4
}
