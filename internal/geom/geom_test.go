package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	if d := (Point{0, 0}).Dist(Point{3, 4}); d != 5 {
		t.Fatalf("Dist = %v, want 5", d)
	}
}

func TestAzimuth(t *testing.T) {
	p := Point{0, 0}
	cases := []struct {
		q    Point
		want float64
	}{
		{Point{1, 0}, 0},
		{Point{0, 1}, 90},
		{Point{-1, 0}, 180},
		{Point{0, -1}, 270},
		{Point{1, 1}, 45},
	}
	for _, c := range cases {
		if got := p.AzimuthTo(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("AzimuthTo(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestAngleDiff(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{0, 0, 0}, {10, 350, 20}, {350, 10, 20}, {0, 180, 180}, {90, 270, 180}, {45, 90, 45},
	}
	for _, c := range cases {
		if got := AngleDiff(c.a, c.b); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("AngleDiff(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestAngleDiffProperties(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		a = math.Mod(a, 1e6)
		b = math.Mod(b, 1e6)
		d := AngleDiff(a, b)
		// Symmetric, bounded, and invariant to full turns.
		return d >= 0 && d <= 180 &&
			math.Abs(d-AngleDiff(b, a)) < 1e-6 &&
			math.Abs(d-AngleDiff(a+360, b)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentsIntersect(t *testing.T) {
	cases := []struct {
		s, u Segment
		want bool
	}{
		{Segment{Point{0, 0}, Point{2, 2}}, Segment{Point{0, 2}, Point{2, 0}}, true},
		{Segment{Point{0, 0}, Point{1, 0}}, Segment{Point{2, 0}, Point{3, 0}}, false},
		{Segment{Point{0, 0}, Point{1, 1}}, Segment{Point{1, 1}, Point{2, 0}}, true}, // shared endpoint
		{Segment{Point{0, 0}, Point{0, 1}}, Segment{Point{1, 0}, Point{1, 1}}, false},
	}
	for i, c := range cases {
		if got := SegmentsIntersect(c.s, c.u); got != c.want {
			t.Errorf("case %d: got %v, want %v", i, got, c.want)
		}
	}
}

func TestRectContains(t *testing.T) {
	r := NewRect(Point{1, 1}, Point{3, 2})
	if !r.Contains(Point{2, 1.5}) || !r.Contains(Point{1, 1}) {
		t.Fatal("Contains failed for inside/boundary point")
	}
	if r.Contains(Point{0, 0}) {
		t.Fatal("Contains true for outside point")
	}
}

func TestCrossingCount(t *testing.T) {
	r := NewRect(Point{1, 1}, Point{2, 2})
	if n := r.CrossingCount(Segment{Point{0, 1.5}, Point{3, 1.5}}); n != 2 {
		t.Fatalf("pass-through crossings = %d, want 2", n)
	}
	if n := r.CrossingCount(Segment{Point{0, 1.5}, Point{1.5, 1.5}}); n != 1 {
		t.Fatalf("end-inside crossings = %d, want 1", n)
	}
	if n := r.CrossingCount(Segment{Point{0, 0}, Point{0.5, 0.2}}); n != 0 {
		t.Fatalf("miss crossings = %d, want 0", n)
	}
}

func TestLerpAndSegmentAt(t *testing.T) {
	s := Segment{Point{0, 0}, Point{10, 20}}
	mid := s.At(0.5)
	if mid.X != 5 || mid.Y != 10 {
		t.Fatalf("midpoint = %v", mid)
	}
	if s.Length() != math.Hypot(10, 20) {
		t.Fatalf("Length = %v", s.Length())
	}
}

func TestRectDims(t *testing.T) {
	r := NewRect(Point{3, 5}, Point{1, 2})
	if r.Width() != 2 || r.Height() != 3 {
		t.Fatalf("dims = %v × %v", r.Width(), r.Height())
	}
	c := r.Center()
	if c.X != 2 || c.Y != 3.5 {
		t.Fatalf("center = %v", c)
	}
}
