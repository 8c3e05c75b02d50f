// Package voronoi implements the service-area partition of the IMTAO paper
// (§IV-A): a Delaunay triangulation built with the Bowyer–Watson incremental
// algorithm, its Voronoi dual with explicit cell geometry clipped to a
// bounding rectangle, and a nearest-site locator used to assign workers and
// tasks to their distribution centers (paper Algorithm 1).
package voronoi

import (
	"errors"
	"math"

	"imtao/internal/geo"
)

// Triangle is a triangle over site indices. Vertices are stored in
// counter-clockwise order; indices < 0 refer to the synthetic super-triangle
// vertices and never leak out of the package.
type Triangle struct {
	V [3]int
}

// Delaunay is a Delaunay triangulation over a fixed set of sites.
type Delaunay struct {
	Sites     []geo.Point
	Triangles []Triangle
}

// ErrTooFewSites is returned when a triangulation or diagram is requested
// over fewer sites than the structure needs.
var ErrTooFewSites = errors.New("voronoi: need at least one site")

// ErrDuplicateSites is returned when two sites coincide; Voronoi cells are
// undefined for coincident sites.
var ErrDuplicateSites = errors.New("voronoi: duplicate sites")

// NewDelaunay triangulates the given sites with Bowyer–Watson in expected
// O(n log n) for random input (worst case O(n²), irrelevant at |C| ≤ 60).
// At least three non-collinear sites are needed for a non-empty
// triangulation; with fewer, Triangles is empty but the locator still works.
func NewDelaunay(sites []geo.Point) (*Delaunay, error) {
	if err := checkSites(sites); err != nil {
		return nil, err
	}
	d := &Delaunay{Sites: append([]geo.Point(nil), sites...)}
	if len(sites) < 3 {
		return d, nil
	}
	d.triangulate()
	return d, nil
}

// vertex returns the location of site index v, where negative indices map to
// the super-triangle corners st.
func vertex(sites []geo.Point, st [3]geo.Point, v int) geo.Point {
	if v < 0 {
		return st[-v-1]
	}
	return sites[v]
}

type btri struct {
	v    [3]int
	dead bool
}

func (d *Delaunay) triangulate() {
	// Super-triangle comfortably containing all sites.
	bounds := geo.BoundingRect(d.Sites)
	c := bounds.Center()
	span := math.Max(bounds.Width(), bounds.Height())
	if span == 0 {
		span = 1
	}
	m := span * 64
	st := [3]geo.Point{
		geo.Pt(c.X-2*m, c.Y-m),
		geo.Pt(c.X+2*m, c.Y-m),
		geo.Pt(c.X, c.Y+2*m),
	}
	tris := []btri{{v: [3]int{-1, -2, -3}}}

	for si := range d.Sites {
		p := d.Sites[si]
		// Find all triangles whose circumcircle contains p ("bad" triangles).
		type edge struct{ a, b int }
		edgeCount := make(map[edge]int)
		var bad []int
		for ti := range tris {
			t := &tris[ti]
			if t.dead {
				continue
			}
			a := vertex(d.Sites, st, t.v[0])
			b := vertex(d.Sites, st, t.v[1])
			cc := vertex(d.Sites, st, t.v[2])
			if geo.InCircumcircle(a, b, cc, p) {
				t.dead = true
				bad = append(bad, ti)
				for e := 0; e < 3; e++ {
					u, v := t.v[e], t.v[(e+1)%3]
					key := edge{u, v}
					if u > v {
						key = edge{v, u}
					}
					edgeCount[key]++
				}
			}
		}
		// Boundary edges appear exactly once among this round's bad
		// triangles. Keep the orientation they had in the dead triangle so
		// new triangles stay CCW around the cavity.
		var boundary []edge
		for _, ti := range bad {
			t := &tris[ti]
			for e := 0; e < 3; e++ {
				u, v := t.v[e], t.v[(e+1)%3]
				key := edge{u, v}
				if u > v {
					key = edge{v, u}
				}
				if edgeCount[key] == 1 {
					boundary = append(boundary, edge{u, v})
				}
			}
		}
		// Retriangulate the cavity.
		for _, e := range boundary {
			tris = append(tris, btri{v: [3]int{e.a, e.b, si}})
		}
		// Compact occasionally to keep the scan cheap.
		if len(tris) > 4*(len(d.Sites)+4) {
			live := tris[:0]
			for _, t := range tris {
				if !t.dead {
					live = append(live, t)
				}
			}
			tris = live
		}
	}

	// Emit triangles that do not touch the super-triangle.
	for _, t := range tris {
		if t.dead || t.v[0] < 0 || t.v[1] < 0 || t.v[2] < 0 {
			continue
		}
		// Normalise to CCW.
		a, b, cc := d.Sites[t.v[0]], d.Sites[t.v[1]], d.Sites[t.v[2]]
		tri := Triangle{V: t.v}
		if geo.Orientation(a, b, cc) < 0 {
			tri.V[1], tri.V[2] = tri.V[2], tri.V[1]
		}
		d.Triangles = append(d.Triangles, tri)
	}
}

// Neighbors returns, for each site, the set of site indices sharing a
// Delaunay edge with it. Centers adjacent in this graph are natural
// workforce-transfer partners; the collaboration ablations use it.
func (d *Delaunay) Neighbors() [][]int {
	adj := make([]map[int]bool, len(d.Sites))
	for i := range adj {
		adj[i] = make(map[int]bool)
	}
	for _, t := range d.Triangles {
		for e := 0; e < 3; e++ {
			u, v := t.V[e], t.V[(e+1)%3]
			adj[u][v] = true
			adj[v][u] = true
		}
	}
	out := make([][]int, len(d.Sites))
	for i, m := range adj {
		for v := range m {
			out[i] = append(out[i], v)
		}
		sortInts(out[i])
	}
	return out
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
