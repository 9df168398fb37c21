package deploy

import (
	"math/rand"
	"sync"
	"testing"

	"fivegsim/internal/geom"
	"fivegsim/internal/radio"
)

// The field-map fast path must pick the same winner as the exhaustive
// scan at every point — the shortlist is an optimization, not a model
// change. Sweep a dense grid plus random jittered points across several
// shadow-field seeds and demand the identical cell and bit-exact RSRP.
func TestBestServerMatchesExhaustive(t *testing.T) {
	for _, seed := range []int64{1, 42, 7} {
		c := New(seed)
		r := rand.New(rand.NewSource(seed))
		var pts []geom.Point
		for x := 0.0; x <= WidthM; x += 10 {
			for y := 0.0; y <= HeightM; y += 10 {
				pts = append(pts, geom.Point{X: x, Y: y})
			}
		}
		for i := 0; i < 500; i++ {
			pts = append(pts, geom.Point{X: r.Float64() * WidthM, Y: r.Float64() * HeightM})
		}
		for _, tech := range []radio.Tech{radio.NR, radio.LTE} {
			mismatches := 0
			for _, p := range pts {
				fast, okF := c.BestServer(tech, p)
				ref, okR := c.BestServerExhaustive(tech, p)
				if okF != okR {
					t.Fatalf("seed %d %v at %+v: ok mismatch fast=%v ref=%v", seed, tech, p, okF, okR)
				}
				if !okF {
					continue
				}
				if fast.PCI != ref.PCI || fast.RSRPdBm != ref.RSRPdBm {
					mismatches++
					if mismatches <= 5 {
						t.Errorf("seed %d %v at (%.1f, %.1f): fast PCI %d (%.3f dBm) vs exhaustive PCI %d (%.3f dBm)",
							seed, tech, p.X, p.Y, fast.PCI, fast.RSRPdBm, ref.PCI, ref.RSRPdBm)
					}
				}
			}
			if mismatches > 0 {
				t.Fatalf("seed %d %v: %d/%d winners differ from exhaustive scan", seed, tech, mismatches, len(pts))
			}
		}
	}
}

// Outside the bucketed area the fast path must evaluate every cell
// rather than index out of range.
func TestBestServerOutOfBounds(t *testing.T) {
	c := New(1)
	for _, p := range []geom.Point{
		{X: -50, Y: 100}, {X: 100, Y: -50}, {X: WidthM + 200, Y: 100}, {X: 100, Y: HeightM + 200},
	} {
		fast, okF := c.BestServer(radio.NR, p)
		ref, okR := c.BestServerExhaustive(radio.NR, p)
		if okF != okR || fast.PCI != ref.PCI || fast.RSRPdBm != ref.RSRPdBm {
			t.Fatalf("out-of-bounds %+v: fast (%d, %.3f, %v) vs exhaustive (%d, %.3f, %v)",
				p, fast.PCI, fast.RSRPdBm, okF, ref.PCI, ref.RSRPdBm, okR)
		}
	}
}

// TestOutsideFieldMapMatchesScalar: outside the bucketed area BestServer
// and MeasureServing take the all-cells shortlist. Both must reproduce
// the scalar oracle bit for bit there — BestServer its strongest entry,
// MeasureServing the entry of every PCI.
func TestOutsideFieldMapMatchesScalar(t *testing.T) {
	for _, seed := range []int64{1, 42, 7} {
		c := New(seed)
		r := rand.New(rand.NewSource(seed))
		pts := []geom.Point{{X: -50, Y: 100}, {X: 100, Y: -50}, {X: WidthM + 200, Y: 100}, {X: 100, Y: HeightM + 200}}
		for i := 0; i < 20; i++ {
			pts = append(pts, geom.Point{X: -1 - 300*r.Float64(), Y: r.Float64() * HeightM},
				geom.Point{X: r.Float64() * WidthM, Y: HeightM + 10 + 300*r.Float64()})
		}
		for _, p := range pts {
			if c.nrField.candidates(p) != nil || c.lteField.candidates(p) != nil {
				t.Fatalf("%+v lies inside the field map", p)
			}
			for _, tech := range []radio.Tech{radio.NR, radio.LTE} {
				want := c.MeasureAll(tech, p)
				got, ok := c.BestServer(tech, p)
				if !ok || !sameBits(got, want[0]) {
					t.Fatalf("seed %d %v at %+v: BestServer %+v (ok=%v), scalar %+v", seed, tech, p, got, ok, want[0])
				}
				for _, m := range want {
					got, ok := c.MeasureServing(tech, p, m.PCI)
					if !ok || !sameBits(got, m) {
						t.Fatalf("seed %d %v at %+v PCI %d: MeasureServing %+v (ok=%v), scalar %+v",
							seed, tech, p, m.PCI, got, ok, m)
					}
				}
			}
		}
	}
}

// Concurrent first-touch queries racing on unbuilt buckets must agree —
// the lazy build is idempotent and published atomically (a sharded
// survey's workers share one campus).
func TestFieldMapConcurrentBuild(t *testing.T) {
	c := New(42)
	const workers = 8
	results := make([][]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for x := 0.0; x <= WidthM; x += 25 {
				for y := 0.0; y <= HeightM; y += 25 {
					m, ok := c.BestServer(radio.NR, geom.Point{X: x, Y: y})
					if !ok {
						t.Error("no server")
						return
					}
					results[w] = append(results[w], m.PCI)
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if len(results[w]) != len(results[0]) {
			t.Fatalf("worker %d saw %d results, worker 0 saw %d", w, len(results[w]), len(results[0]))
		}
		for i := range results[w] {
			if results[w][i] != results[0][i] {
				t.Fatalf("worker %d result %d: PCI %d vs %d", w, i, results[w][i], results[0][i])
			}
		}
	}
}

// BestServer on warmed buckets must not allocate: the survey's inner loop
// runs it millions of times.
func TestBestServerAllocFree(t *testing.T) {
	c := New(1)
	pts := []geom.Point{{X: 120, Y: 130}, {X: 250, Y: 500}, {X: 480, Y: 910}, {X: 20, Y: 300}}
	for _, p := range pts { // warm the buckets
		c.BestServer(radio.NR, p)
		c.BestServer(radio.LTE, p)
	}
	avg := testing.AllocsPerRun(50, func() {
		for _, p := range pts {
			c.BestServer(radio.NR, p)
			c.BestServer(radio.LTE, p)
		}
	})
	if avg != 0 {
		t.Fatalf("BestServer allocates on warm buckets: %.2f allocs/run", avg)
	}
}
