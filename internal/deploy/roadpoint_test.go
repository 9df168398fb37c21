package deploy

import (
	"testing"

	"fivegsim/internal/geom"
)

func testRoads() *Campus {
	return &Campus{Roads: []geom.Segment{
		{A: geom.Point{X: 0, Y: 0}, B: geom.Point{X: 100, Y: 0}},
		{A: geom.Point{X: 100, Y: 0}, B: geom.Point{X: 100, Y: 50}},
	}}
}

// A draw at (or, through float rounding in the summed total, just past)
// the end of the concatenated road graph must clamp to the final road's
// endpoint — not fall through to the zero point.
func TestRoadPointClampsPastEnd(t *testing.T) {
	c := testRoads()
	total := c.RoadLengthM()
	end := c.Roads[len(c.Roads)-1].B
	for _, at := range []float64{total, total + 1e-9, total * (1 + 1e-15)} {
		if p := c.RoadPoint(at); p != end {
			t.Fatalf("RoadPoint(%.12f) = %+v, want clamp to %+v", at, p, end)
		}
	}
}

func TestRoadPointInterior(t *testing.T) {
	c := testRoads()
	if p := c.RoadPoint(0); p != (geom.Point{X: 0, Y: 0}) {
		t.Fatalf("start: got %+v", p)
	}
	if p := c.RoadPoint(50); p != (geom.Point{X: 50, Y: 0}) {
		t.Fatalf("mid first segment: got %+v", p)
	}
	if p := c.RoadPoint(125); p != (geom.Point{X: 100, Y: 25}) {
		t.Fatalf("mid second segment: got %+v", p)
	}
}
