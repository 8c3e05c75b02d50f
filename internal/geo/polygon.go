package geo

import "math"

// Polygon is a simple polygon given by its vertices in order. Voronoi cells
// produced by the partitioner are convex counter-clockwise polygons, but the
// predicates here work for any simple polygon unless stated otherwise.
type Polygon []Point

// Area returns the signed area of the polygon: positive for counter-clockwise
// winding, negative for clockwise.
func (pg Polygon) Area() float64 {
	n := len(pg)
	if n < 3 {
		return 0
	}
	var s float64
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		s += pg[i].Cross(pg[j])
	}
	return s / 2
}

// Centroid returns the area centroid of the polygon. For degenerate polygons
// (fewer than three vertices or zero area) it falls back to the vertex mean.
func (pg Polygon) Centroid() Point {
	n := len(pg)
	if n == 0 {
		return Point{}
	}
	a := pg.Area()
	if n < 3 || math.Abs(a) < Eps {
		var c Point
		for _, p := range pg {
			c = c.Add(p)
		}
		return c.Scale(1 / float64(n))
	}
	var cx, cy float64
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		w := pg[i].Cross(pg[j])
		cx += (pg[i].X + pg[j].X) * w
		cy += (pg[i].Y + pg[j].Y) * w
	}
	k := 1 / (6 * a)
	return Point{cx * k, cy * k}
}

// Contains reports whether p lies inside the polygon (boundary inclusive)
// using the winding-free ray-crossing rule.
func (pg Polygon) Contains(p Point) bool {
	n := len(pg)
	if n < 3 {
		return false
	}
	inside := false
	for i, j := 0, n-1; i < n; j, i = i, i+1 {
		a, b := pg[i], pg[j]
		if (Segment{a, b}).Dist(p) <= Eps {
			return true // on the boundary
		}
		if (a.Y > p.Y) != (b.Y > p.Y) {
			x := a.X + (p.Y-a.Y)/(b.Y-a.Y)*(b.X-a.X)
			if p.X < x {
				inside = !inside
			}
		}
	}
	return inside
}

// ClipHalfPlane returns the part of the convex polygon on the side of the
// line through a and b where Orientation(a, b, p) >= 0 (the left side of the
// directed line a->b). This is the Sutherland–Hodgman step used to clip
// Voronoi cells to the bounding box and to intersect half-planes.
func (pg Polygon) ClipHalfPlane(a, b Point) Polygon {
	n := len(pg)
	if n == 0 {
		return nil
	}
	dir := b.Sub(a)
	side := func(p Point) float64 { return dir.Cross(p.Sub(a)) }
	out := make(Polygon, 0, n+2)
	for i := 0; i < n; i++ {
		cur, nxt := pg[i], pg[(i+1)%n]
		sc, sn := side(cur), side(nxt)
		if sc >= -Eps {
			out = append(out, cur)
		}
		if (sc > Eps && sn < -Eps) || (sc < -Eps && sn > Eps) {
			t := sc / (sc - sn)
			out = append(out, cur.Lerp(nxt, t))
		}
	}
	return out
}

// RectPolygon returns r as a counter-clockwise polygon.
func RectPolygon(r Rect) Polygon {
	return Polygon{
		r.Min,
		Pt(r.Max.X, r.Min.Y),
		r.Max,
		Pt(r.Min.X, r.Max.Y),
	}
}
