package geo

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func square(side float64) Polygon {
	return Polygon{Pt(0, 0), Pt(side, 0), Pt(side, side), Pt(0, side)}
}

func TestPolygonArea(t *testing.T) {
	sq := square(2)
	if got := sq.Area(); math.Abs(got-4) > Eps {
		t.Errorf("area = %v", got)
	}
	// Clockwise winding flips the sign.
	cw := Polygon{Pt(0, 0), Pt(0, 2), Pt(2, 2), Pt(2, 0)}
	if got := cw.Area(); math.Abs(got+4) > Eps {
		t.Errorf("cw area = %v", got)
	}
	if got := (Polygon{Pt(0, 0), Pt(1, 1)}).Area(); got != 0 {
		t.Errorf("degenerate area = %v", got)
	}
}

func TestPolygonCentroid(t *testing.T) {
	sq := square(2)
	if got := sq.Centroid(); !got.Eq(Pt(1, 1)) {
		t.Errorf("centroid = %v", got)
	}
	tri := Polygon{Pt(0, 0), Pt(3, 0), Pt(0, 3)}
	if got := tri.Centroid(); !got.Eq(Pt(1, 1)) {
		t.Errorf("triangle centroid = %v", got)
	}
	// Degenerate falls back to vertex mean.
	seg := Polygon{Pt(0, 0), Pt(2, 0)}
	if got := seg.Centroid(); !got.Eq(Pt(1, 0)) {
		t.Errorf("degenerate centroid = %v", got)
	}
}

func TestPolygonContains(t *testing.T) {
	sq := square(4)
	if !sq.Contains(Pt(2, 2)) {
		t.Error("interior point")
	}
	if !sq.Contains(Pt(0, 2)) {
		t.Error("boundary point")
	}
	if !sq.Contains(Pt(0, 0)) {
		t.Error("vertex")
	}
	if sq.Contains(Pt(5, 2)) || sq.Contains(Pt(-1, -1)) {
		t.Error("exterior point")
	}
	// Concave polygon (L-shape).
	l := Polygon{Pt(0, 0), Pt(4, 0), Pt(4, 2), Pt(2, 2), Pt(2, 4), Pt(0, 4)}
	if !l.Contains(Pt(1, 3)) || !l.Contains(Pt(3, 1)) {
		t.Error("L-shape interior")
	}
	if l.Contains(Pt(3, 3)) {
		t.Error("L-shape notch is exterior")
	}
}

func TestClipHalfPlane(t *testing.T) {
	sq := square(4)
	// Keep left of the upward vertical line x=2 (directed (2,0)->(2,4) keeps x<=2).
	got := sq.ClipHalfPlane(Pt(2, 0), Pt(2, 4))
	if math.Abs(got.Area()-8) > 1e-6 {
		t.Errorf("clipped area = %v, polygon %v", got.Area(), got)
	}
	for _, p := range got {
		if p.X > 2+Eps {
			t.Errorf("vertex %v on wrong side", p)
		}
	}
	// Clipping away everything yields an empty polygon.
	gone := sq.ClipHalfPlane(Pt(-1, 0), Pt(-1, 4)) // keeps x <= -1
	if len(gone) != 0 {
		t.Errorf("expected empty polygon, got %v", gone)
	}
	// Clipping with a line fully outside keeps everything.
	all := sq.ClipHalfPlane(Pt(10, 0), Pt(10, 4)) // keeps x <= 10
	if math.Abs(all.Area()-16) > 1e-6 {
		t.Errorf("expected full polygon, area %v", all.Area())
	}
}

func TestRectPolygon(t *testing.T) {
	r := NewRect(Pt(0, 0), Pt(2, 3))
	pg := RectPolygon(r)
	if math.Abs(pg.Area()-6) > Eps {
		t.Errorf("area = %v", pg.Area())
	}
	if pg.Area() < 0 {
		t.Error("must be CCW")
	}
}

// randConvex returns a counter-clockwise convex polygon of 3–11 vertices:
// points at sorted random angles on a random circle inside [0,100]².
func randConvex(rng *rand.Rand) Polygon {
	c := Pt(20+rng.Float64()*60, 20+rng.Float64()*60)
	r := 5 + rng.Float64()*15
	angles := make([]float64, 3+rng.Intn(9))
	for i := range angles {
		angles[i] = rng.Float64() * 2 * math.Pi
	}
	slices.Sort(angles)
	pg := make(Polygon, len(angles))
	for i, a := range angles {
		pg[i] = c.Add(Pt(math.Cos(a), math.Sin(a)).Scale(r))
	}
	return pg
}

// Property: ClipHalfPlane output lies on the kept side and inside the
// original polygon (up to boundary fuzz), and clipping is idempotent.
func TestClipHalfPlaneProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 40; trial++ {
		pg := randConvex(rng)
		a := Pt(rng.Float64()*100, rng.Float64()*100)
		b := Pt(rng.Float64()*100, rng.Float64()*100)
		if a.Eq(b) {
			continue
		}
		clipped := pg.ClipHalfPlane(a, b)
		for _, p := range clipped {
			if Orientation(a, b, p) < 0 && (Segment{a, b}).Dist(p) > 1e-6 {
				t.Fatalf("trial %d: vertex %v on the cut side", trial, p)
			}
		}
		if clipped.Area() > pg.Area()+1e-6 {
			t.Fatalf("trial %d: clip grew the polygon", trial)
		}
		again := clipped.ClipHalfPlane(a, b)
		if math.Abs(again.Area()-clipped.Area()) > 1e-6 {
			t.Fatalf("trial %d: clipping is not idempotent: %v vs %v",
				trial, clipped.Area(), again.Area())
		}
	}
}
