// Package geom provides the 2-D geometry used by the campus model:
// points, segments, axis-aligned buildings, and line-of-sight tests.
//
// Coordinates are in meters. The campus origin (0,0) is the south-west
// corner; x grows east, y grows north.
package geom

import "math"

// Point is a position in meters.
type Point struct {
	X, Y float64
}

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p − q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by k.
func (p Point) Scale(k float64) Point { return Point{p.X * k, p.Y * k} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Hypot(dx, dy)
}

// AzimuthTo returns the bearing from p to q in degrees, measured
// counter-clockwise from the +x axis, normalized to [0, 360).
func (p Point) AzimuthTo(q Point) float64 {
	deg := math.Atan2(q.Y-p.Y, q.X-p.X) * 180 / math.Pi
	if deg < 0 {
		deg += 360
	}
	return deg
}

// Lerp returns the point a fraction t of the way from p to q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Segment is a line segment between two points.
type Segment struct {
	A, B Point
}

// Length returns the segment length.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// At returns the point a fraction t ∈ [0,1] along the segment.
func (s Segment) At(t float64) Point { return s.A.Lerp(s.B, t) }

// Rect is an axis-aligned rectangle (used for buildings).
type Rect struct {
	Min, Max Point
}

// NewRect returns the rectangle spanning the two corners in any order.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// Contains reports whether p lies inside or on the boundary of r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Center returns the rectangle's center.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Width and Height of the rectangle.
func (r Rect) Width() float64  { return r.Max.X - r.Min.X }
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// edges returns the four boundary segments of r.
func (r Rect) edges() [4]Segment {
	a := r.Min
	b := Point{r.Max.X, r.Min.Y}
	c := r.Max
	d := Point{r.Min.X, r.Max.Y}
	return [4]Segment{{a, b}, {b, c}, {c, d}, {d, a}}
}

// CrossingCount returns the number of rectangle walls the segment crosses.
// A segment passing clean through a building crosses 2 walls; one ending
// inside crosses 1. Touching a corner counts once per edge touched, which
// is adequate for attenuation modelling.
//
// A bounding-box rejection runs first: any intersection point lies on the
// segment (so inside its bounding box) and on a rectangle edge (so inside
// the rectangle), hence a segment whose box misses the rectangle crosses
// nothing. The comparisons are inclusive, so touching contacts — which
// SegmentsIntersect counts — are never culled, and the count is exactly
// that of the edge-by-edge scan. This test sits under every RSRP
// evaluation (one per building per cell), where most buildings are
// nowhere near the site–receiver segment.
func (r Rect) CrossingCount(s Segment) int {
	if math.Max(s.A.X, s.B.X) < r.Min.X || math.Min(s.A.X, s.B.X) > r.Max.X ||
		math.Max(s.A.Y, s.B.Y) < r.Min.Y || math.Min(s.A.Y, s.B.Y) > r.Max.Y {
		return 0
	}
	n := 0
	for _, e := range r.edges() {
		if SegmentsIntersect(s, e) {
			n++
		}
	}
	return n
}

// cross returns the 2-D cross product (b−a) × (c−a).
func cross(a, b, c Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// onSegment reports whether c (assumed collinear with the segment a-b)
// lies within the segment's bounding box.
func onSegment(a, b, c Point) bool {
	return math.Min(a.X, b.X) <= c.X && c.X <= math.Max(a.X, b.X) &&
		math.Min(a.Y, b.Y) <= c.Y && c.Y <= math.Max(a.Y, b.Y)
}

// SegmentsIntersect reports whether two segments intersect (including
// touching at endpoints or collinear overlap).
func SegmentsIntersect(s, t Segment) bool {
	d1 := cross(t.A, t.B, s.A)
	d2 := cross(t.A, t.B, s.B)
	d3 := cross(s.A, s.B, t.A)
	d4 := cross(s.A, s.B, t.B)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	switch {
	case d1 == 0 && onSegment(t.A, t.B, s.A):
		return true
	case d2 == 0 && onSegment(t.A, t.B, s.B):
		return true
	case d3 == 0 && onSegment(s.A, s.B, t.A):
		return true
	case d4 == 0 && onSegment(s.A, s.B, t.B):
		return true
	}
	return false
}

// AngleDiff returns the absolute difference between two bearings in
// degrees, folded into [0, 180].
func AngleDiff(a, b float64) float64 {
	d := math.Mod(a-b, 360)
	if d < 0 {
		d += 360
	}
	if d > 180 {
		d = 360 - d
	}
	return d
}
