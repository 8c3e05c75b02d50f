// Package geo provides the 2-D geometric primitives used throughout the
// IMTAO reproduction: points, rectangles, segments, and the distance
// arithmetic that the spatial-crowdsourcing model is built on.
//
// All coordinates are plain float64 Euclidean coordinates. The paper's
// synthetic dataset lives in [0,2000]^2 and its gMission-like dataset in an
// arbitrary bounded planar region, so a flat Euclidean model is exactly what
// the original system uses.
package geo

import (
	"fmt"
	"math"
)

// Eps is the tolerance used for approximate floating-point comparisons in
// geometric predicates. It is deliberately coarse relative to machine epsilon
// because inputs are city-scale coordinates where nanometre precision is
// meaningless.
const Eps = 1e-9

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// String renders the point as "(x, y)" with compact precision.
func (p Point) String() string { return fmt.Sprintf("(%.6g, %.6g)", p.X, p.Y) }

// Add returns p + q component-wise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q component-wise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by k.
func (p Point) Scale(k float64) Point { return Point{p.X * k, p.Y * k} }

// Dot returns the dot product of p and q treated as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z-component of the cross product of p and q treated as
// vectors. Positive means q is counter-clockwise from p.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Norm returns the Euclidean length of p treated as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Norm2 returns the squared Euclidean length of p treated as a vector.
func (p Point) Norm2() float64 { return p.X*p.X + p.Y*p.Y }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared Euclidean distance between p and q. It is the
// comparison key of choice in nearest-neighbour loops because it avoids the
// square root.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Finite reports whether both coordinates are finite (no NaN, no ±Inf).
func (p Point) Finite() bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) && !math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// Eq reports whether p and q coincide within Eps in both coordinates.
func (p Point) Eq(q Point) bool {
	return math.Abs(p.X-q.X) <= Eps && math.Abs(p.Y-q.Y) <= Eps
}

// Lerp returns the linear interpolation p + t*(q-p).
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + t*(q.X-p.X), p.Y + t*(q.Y-p.Y)}
}

// Mid returns the midpoint of p and q.
func Mid(p, q Point) Point { return Point{(p.X + q.X) / 2, (p.Y + q.Y) / 2} }

// Orientation classifies the turn a->b->c.
// It returns +1 for counter-clockwise, -1 for clockwise and 0 for collinear
// (within Eps scaled by the magnitudes involved).
func Orientation(a, b, c Point) int {
	v := b.Sub(a).Cross(c.Sub(a))
	scale := math.Max(1, math.Max(b.Sub(a).Norm(), c.Sub(a).Norm()))
	switch {
	case v > Eps*scale:
		return 1
	case v < -Eps*scale:
		return -1
	default:
		return 0
	}
}

// Rect is an axis-aligned rectangle with Min at the lower-left corner and Max
// at the upper-right corner.
type Rect struct {
	Min, Max Point
}

// NewRect returns the rectangle spanned by two arbitrary corner points.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the area of r.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X-Eps && p.X <= r.Max.X+Eps &&
		p.Y >= r.Min.Y-Eps && p.Y <= r.Max.Y+Eps
}

// BoundingRect returns the axis-aligned bounding rectangle of pts.
// It panics if pts is empty; callers always have at least one point.
func BoundingRect(pts []Point) Rect {
	if len(pts) == 0 {
		panic("geo: BoundingRect of empty slice")
	}
	r := Rect{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		r.Min.X = math.Min(r.Min.X, p.X)
		r.Min.Y = math.Min(r.Min.Y, p.Y)
		r.Max.X = math.Max(r.Max.X, p.X)
		r.Max.Y = math.Max(r.Max.Y, p.Y)
	}
	return r
}

// Segment is a directed line segment from A to B.
type Segment struct {
	A, B Point
}

// ClosestPoint returns the point on s closest to p.
func (s Segment) ClosestPoint(p Point) Point {
	d := s.B.Sub(s.A)
	l2 := d.Norm2()
	if l2 == 0 {
		return s.A
	}
	t := p.Sub(s.A).Dot(d) / l2
	t = math.Max(0, math.Min(1, t))
	return s.A.Lerp(s.B, t)
}

// Dist returns the distance from p to segment s.
func (s Segment) Dist(p Point) float64 { return p.Dist(s.ClosestPoint(p)) }
