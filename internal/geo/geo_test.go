package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p, q := Pt(1, 2), Pt(3, -4)
	if got := p.Add(q); got != Pt(4, -2) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != Pt(-2, 6) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != Pt(2, 4) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Dot(q); got != 3-8 {
		t.Errorf("Dot = %v", got)
	}
	if got := p.Cross(q); got != -4-6 {
		t.Errorf("Cross = %v", got)
	}
}

func TestDist(t *testing.T) {
	cases := []struct {
		a, b Point
		want float64
	}{
		{Pt(0, 0), Pt(3, 4), 5},
		{Pt(1, 1), Pt(1, 1), 0},
		{Pt(-1, 0), Pt(1, 0), 2},
	}
	for _, c := range cases {
		if got := c.a.Dist(c.b); math.Abs(got-c.want) > Eps {
			t.Errorf("Dist(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.a.Dist2(c.b); math.Abs(got-c.want*c.want) > Eps {
			t.Errorf("Dist2(%v,%v) = %v, want %v", c.a, c.b, got, c.want*c.want)
		}
	}
}

func TestDist2MatchesDist(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := Pt(clamp(ax), clamp(ay)), Pt(clamp(bx), clamp(by))
		d := a.Dist(b)
		return math.Abs(a.Dist2(b)-d*d) <= 1e-6*(1+d*d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clamp keeps quick-generated values within city scale so floating error
// bounds stay meaningful.
func clamp(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1e4)
}

func TestOrientation(t *testing.T) {
	a, b := Pt(0, 0), Pt(1, 0)
	if Orientation(a, b, Pt(1, 1)) != 1 {
		t.Error("expected CCW")
	}
	if Orientation(a, b, Pt(1, -1)) != -1 {
		t.Error("expected CW")
	}
	if Orientation(a, b, Pt(2, 0)) != 0 {
		t.Error("expected collinear")
	}
}

func TestLerpMid(t *testing.T) {
	a, b := Pt(0, 0), Pt(10, 20)
	if got := a.Lerp(b, 0.5); !got.Eq(Mid(a, b)) {
		t.Errorf("Lerp(0.5) = %v, Mid = %v", got, Mid(a, b))
	}
	if got := a.Lerp(b, 0); !got.Eq(a) {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := a.Lerp(b, 1); !got.Eq(b) {
		t.Errorf("Lerp(1) = %v", got)
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(Pt(4, 5), Pt(1, 2)) // corners in arbitrary order
	if r.Min != Pt(1, 2) || r.Max != Pt(4, 5) {
		t.Fatalf("NewRect normalisation failed: %+v", r)
	}
	if r.Width() != 3 || r.Height() != 3 {
		t.Errorf("width/height = %v/%v", r.Width(), r.Height())
	}
	if r.Area() != 9 {
		t.Errorf("area = %v", r.Area())
	}
	if !r.Contains(Pt(2, 3)) || !r.Contains(Pt(1, 2)) || r.Contains(Pt(0, 0)) {
		t.Error("Contains misbehaves")
	}
	if !r.Contains(Mid(r.Min, r.Max)) {
		t.Error("center must be inside")
	}
}

func TestBoundingRect(t *testing.T) {
	pts := []Point{Pt(3, 1), Pt(-1, 4), Pt(2, -2)}
	r := BoundingRect(pts)
	if r.Min != Pt(-1, -2) || r.Max != Pt(3, 4) {
		t.Errorf("bounding rect = %+v", r)
	}
	for _, p := range pts {
		if !r.Contains(p) {
			t.Errorf("bounding rect must contain %v", p)
		}
	}
}

func TestBoundingRectPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on empty input")
		}
	}()
	BoundingRect(nil)
}

func TestSegmentClosestPoint(t *testing.T) {
	s := Segment{Pt(0, 0), Pt(10, 0)}
	cases := []struct {
		p, want Point
	}{
		{Pt(5, 3), Pt(5, 0)},
		{Pt(-2, 1), Pt(0, 0)},
		{Pt(12, -1), Pt(10, 0)},
	}
	for _, c := range cases {
		if got := s.ClosestPoint(c.p); !got.Eq(c.want) {
			t.Errorf("ClosestPoint(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := s.Dist(Pt(5, 3)); math.Abs(got-3) > Eps {
		t.Errorf("Dist = %v", got)
	}
	// Degenerate zero-length segment.
	z := Segment{Pt(1, 1), Pt(1, 1)}
	if got := z.ClosestPoint(Pt(5, 5)); !got.Eq(Pt(1, 1)) {
		t.Errorf("degenerate closest = %v", got)
	}
}
