// Package voronoi implements the service-area partition of the IMTAO paper
// (§IV-A): the Voronoi diagram of the distribution centers, with a
// nearest-site locator that assigns workers and tasks to their centers
// (paper Algorithm 1) and explicit cell geometry clipped to a bounding
// rectangle, plus the center-placement helpers (k-means, Lloyd relaxation
// and the task-weighted partitioner).
package voronoi

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"imtao/internal/geo"
	"imtao/internal/index"
)

// ErrTooFewSites is returned when a diagram is requested over no sites.
var ErrTooFewSites = errors.New("voronoi: need at least one site")

// ErrDuplicateSites is returned when two sites coincide; Voronoi cells are
// undefined for coincident sites.
var ErrDuplicateSites = errors.New("voronoi: duplicate sites")

// Diagram is a Voronoi diagram over a set of sites, clipped to a bounding
// rectangle. Cell i contains exactly the points of Bounds closer to site i
// than to any other site, which is the delivery-region semantics of paper
// Definition 1 / Algorithm 1.
//
// Algorithm 1 needs only the nearest-site relation, which NearestSite
// answers from a uniform grid over the sites. The cell polygons cost
// O(n²) clips and are built on the first call to Cells.
type Diagram struct {
	Sites  []geo.Point
	Bounds geo.Rect

	grid *index.Grid

	cellsOnce sync.Once
	cells     []geo.Polygon
}

// NewDiagram checks the sites and indexes them for nearest-site queries.
// Every site must be finite, and no two may coincide within geo.Eps in both
// coordinates.
func NewDiagram(sites []geo.Point, bounds geo.Rect) (*Diagram, error) {
	if err := checkSites(sites); err != nil {
		return nil, err
	}
	d := &Diagram{Sites: append([]geo.Point(nil), sites...), Bounds: bounds}
	// About one site per cell of a square over the sites' bounding box: the
	// square keeps collinear sites from asking for a degenerate grid.
	box := geo.BoundingRect(d.Sites)
	side := max(box.Width(), box.Height())
	square := geo.Rect{Min: box.Min, Max: box.Min.Add(geo.Pt(side, side))}
	d.grid = index.NewGrid(square, len(sites), 1)
	for i, s := range d.Sites {
		d.grid.Insert(index.Item{ID: i, Point: s})
	}
	return d, nil
}

// checkSites rejects an empty site list, a non-finite site and two sites
// that geo.Point.Eq calls equal. Two such sites lie within Eps of each
// other in X, so after sorting by X each site is compared only with the
// sites that follow it within that window.
func checkSites(sites []geo.Point) error {
	if len(sites) == 0 {
		return ErrTooFewSites
	}
	for i, s := range sites {
		if !s.Finite() {
			return fmt.Errorf("voronoi: site %d at %v is not finite", i, s)
		}
	}
	order := make([]int, len(sites))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(sites[a].X, sites[b].X) })
	for k, i := range order {
		for _, j := range order[k+1:] {
			if sites[j].X-sites[i].X > geo.Eps {
				break
			}
			if sites[i].Eq(sites[j]) {
				i, j = min(i, j), max(i, j)
				return fmt.Errorf("%w: site %d and %d at %v", ErrDuplicateSites, i, j, sites[i])
			}
		}
	}
	return nil
}

// Cells returns the clipped cell polygon of every site, building them on
// first use: cell i is Bounds clipped by the bisectors of site i and every
// other site.
func (d *Diagram) Cells() []geo.Polygon {
	d.cellsOnce.Do(d.buildCells)
	return d.cells
}

func (d *Diagram) buildCells() {
	d.cells = make([]geo.Polygon, len(d.Sites))
	for i, si := range d.Sites {
		cell := geo.RectPolygon(d.Bounds)
		for j, sj := range d.Sites {
			if i == j {
				continue
			}
			// Keep the half-plane of points nearer to si than sj: the left
			// side of the perpendicular bisector directed so si is on it.
			mid := geo.Mid(si, sj)
			dir := sj.Sub(si)
			// Perpendicular (rotate dir by +90°): points left of
			// (mid -> mid+perp) satisfy perp × (p-mid) >= 0 ⇔ nearer to si.
			perp := geo.Pt(-dir.Y, dir.X)
			a := mid
			b := mid.Add(perp)
			if geo.Orientation(a, b, si) < 0 {
				a, b = b, a
			}
			cell = cell.ClipHalfPlane(a, b)
			if len(cell) == 0 {
				break
			}
		}
		d.cells[i] = cell
	}
}

// NearestSite returns the index of the site closest to p, breaking distance
// ties toward the smaller index (deterministic partitions). p must be
// finite. It is safe for concurrent use.
func (d *Diagram) NearestSite(p geo.Point) int {
	it, _ := d.grid.Nearest(p) // non-empty by construction
	return it.ID
}

// TotalArea returns the summed area of all cells; for sites inside Bounds it
// equals the bounds area (used as a diagram sanity invariant in tests).
func (d *Diagram) TotalArea() float64 {
	var a float64
	for _, c := range d.Cells() {
		a += c.Area()
	}
	return a
}
