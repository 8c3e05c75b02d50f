package voronoi

import (
	"imtao/internal/geo"
)

// Lloyd performs Lloyd relaxation: it repeatedly moves every site to the
// centroid of its Voronoi cell. The result is a centroidal Voronoi
// tessellation with evenly sized cells — the balanced-center-placement
// ablation of DESIGN.md §6 (the paper places centers uniformly at random;
// real platforms would site their depots more evenly).
//
// iterations bounds the relaxation rounds; the function returns early when
// the largest site movement drops below tol. The input slice is not
// modified.
func Lloyd(sites []geo.Point, bounds geo.Rect, iterations int, tol float64) ([]geo.Point, error) {
	cur := append([]geo.Point(nil), sites...)
	if tol <= 0 {
		tol = 1e-6
	}
	for it := 0; it < iterations; it++ {
		d, err := NewDiagram(cur, bounds)
		if err != nil {
			return nil, err
		}
		moved := 0.0
		next := make([]geo.Point, len(cur))
		for i, cell := range d.Cells() {
			if len(cell) < 3 {
				next[i] = cur[i] // degenerate cell: keep the site in place
				continue
			}
			next[i] = cell.Centroid()
			if m := next[i].Dist(cur[i]); m > moved {
				moved = m
			}
		}
		cur = next
		if moved < tol {
			break
		}
	}
	return cur, nil
}

// CellAreas returns the area of every site's clipped cell — the spread of
// these areas quantifies how balanced a placement is.
func CellAreas(sites []geo.Point, bounds geo.Rect) ([]float64, error) {
	d, err := NewDiagram(sites, bounds)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(d.Sites))
	for i, cell := range d.Cells() {
		out[i] = cell.Area()
	}
	return out, nil
}
