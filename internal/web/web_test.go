package web

import (
	"testing"

	"fivegsim/internal/netsim"
	"fivegsim/internal/radio"
)

// paths returns the calibrated 4G and 5G daytime paths with their seeds
// set, the configs F16 and F17 hand this package.
func paths(seed int64) []netsim.PathConfig {
	ps := []netsim.PathConfig{netsim.DefaultPath(radio.LTE, true), netsim.DefaultPath(radio.NR, true)}
	for i := range ps {
		ps[i].Seed = seed
	}
	return ps
}

func fig16(t *testing.T) []CategoryResult {
	t.Helper()
	return RunFig16(3, paths(42))
}

func TestFig16Categories(t *testing.T) {
	res := fig16(t)
	if len(res) != 10 { // 5 categories × 2 technologies
		t.Fatalf("got %d category results", len(res))
	}
	for _, r := range res {
		if r.PLT() <= 0 || r.Downloading <= 0 || r.Rendering <= 0 {
			t.Fatalf("degenerate result: %+v", r)
		}
		// Paper Fig. 16: PLTs between ≈1 s and ≈6 s.
		if r.PLT().Seconds() < 0.8 || r.PLT().Seconds() > 8 {
			t.Fatalf("%v %s PLT = %.2fs out of the Fig. 16 range", r.Tech, r.Category, r.PLT().Seconds())
		}
	}
}

func TestFig16MarginalPLTGain(t *testing.T) {
	plt, dl := Reductions(fig16(t))
	// §5.1: "the 5G PLT shows minimum reduction (5 % on average)" despite
	// the 5× throughput gain, and "5G only provides a marginal 20.68 %
	// reduction" on downloading alone.
	if plt < 0.0 || plt > 0.16 {
		t.Fatalf("PLT reduction = %.1f%%, paper ≈5%% (must be marginal)", 100*plt)
	}
	if dl < 0.12 || dl > 0.34 {
		t.Fatalf("downloading reduction = %.1f%%, paper 20.68%%", 100*dl)
	}
	if plt >= dl {
		t.Fatal("PLT reduction must be smaller than downloading reduction (rendering dilutes it)")
	}
}

func TestFig16RenderingDominatesLargePages(t *testing.T) {
	for _, r := range fig16(t) {
		if r.Tech != radio.NR {
			continue
		}
		if r.Category == "Map" || r.Category == "Shopping" {
			if r.Rendering <= r.Downloading {
				t.Fatalf("%s on 5G: rendering (%.2fs) should dominate downloading (%.2fs)",
					r.Category, r.Rendering.Seconds(), r.Downloading.Seconds())
			}
		}
	}
}

func TestFig17ImageSweep(t *testing.T) {
	res := RunFig17(paths(42))
	if len(res) != 10 {
		t.Fatalf("got %d image results", len(res))
	}
	byTech := map[radio.Tech][]ImageResult{}
	for _, r := range res {
		byTech[r.Tech] = append(byTech[r.Tech], r)
	}
	for tech, rs := range byTech {
		for i := 1; i < len(rs); i++ {
			if rs[i].Rendering <= rs[i-1].Rendering {
				t.Fatalf("%v: rendering must grow with image size", tech)
			}
		}
	}
	// 4G downloads slower than 5G at every size; the absolute gap grows
	// with size (bandwidth matters more for bigger objects).
	gapSmall := byTech[radio.LTE][0].Downloading - byTech[radio.NR][0].Downloading
	gapBig := byTech[radio.LTE][4].Downloading - byTech[radio.NR][4].Downloading
	if gapBig <= gapSmall {
		t.Fatalf("download gap should grow with size: %v → %v", gapSmall, gapBig)
	}
	for i := range byTech[radio.LTE] {
		if byTech[radio.LTE][i].Downloading <= byTech[radio.NR][i].Downloading {
			t.Fatalf("4G download faster than 5G at %d MB", byTech[radio.LTE][i].SizeMB)
		}
	}
	// For 16 MB images even 5G's PLT is rendering-bound (the paper's
	// computational-bottleneck conclusion).
	last := byTech[radio.NR][4]
	if last.Rendering <= last.Downloading {
		t.Fatalf("16 MB on 5G: rendering (%.2fs) should exceed downloading (%.2fs)",
			last.Rendering.Seconds(), last.Downloading.Seconds())
	}
}

func TestLoadDeterministic(t *testing.T) {
	p := Corpus()[0]
	nr := paths(7)[1]
	a := Load(p, nr)
	b := Load(p, nr)
	if a.Downloading != b.Downloading || a.Rendering != b.Rendering {
		t.Fatal("Load must be deterministic for a fixed seed")
	}
}
