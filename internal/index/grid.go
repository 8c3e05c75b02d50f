// Package index provides the uniform grid that answers the partition's
// nearest-center queries (paper Algorithm 1), plus LinearNearest, the
// brute-force scan the skill-constrained assigner uses and the
// nearest-neighbour tests compare against.
//
// Queries run over a set of identified points: callers register (id, point)
// pairs and queries return ids. Distances are Euclidean.
package index

import (
	"math"

	"imtao/internal/geo"
)

// Item is an identified point stored in an index.
type Item struct {
	ID    int
	Point geo.Point
}

// Grid is a static uniform-grid index: every item is inserted once, then
// queried. Item IDs must be non-negative and each inserted at most once.
type Grid struct {
	bounds geo.Rect
	cell   float64
	nx, ny int
	cells  [][]Item
	count  int
}

// NewGrid creates a grid covering bounds with roughly targetPerCell items per
// cell assuming n items uniformly spread. n and targetPerCell merely size the
// cells; any number of items may be inserted, and items outside bounds are
// filed in the nearest edge cell.
func NewGrid(bounds geo.Rect, n, targetPerCell int) *Grid {
	if targetPerCell <= 0 {
		targetPerCell = 4
	}
	if n <= 0 {
		n = 1
	}
	area := bounds.Area()
	if area <= 0 {
		area = 1
	}
	cell := math.Sqrt(area * float64(targetPerCell) / float64(n))
	if cell <= 0 || math.IsNaN(cell) {
		cell = 1
	}
	nx := max(int(math.Ceil(bounds.Width()/cell))+1, 1)
	ny := max(int(math.Ceil(bounds.Height()/cell))+1, 1)
	return &Grid{bounds: bounds, cell: cell, nx: nx, ny: ny, cells: make([][]Item, nx*ny)}
}

func (g *Grid) cellIndex(p geo.Point) (int, int) {
	cx := int((p.X - g.bounds.Min.X) / g.cell)
	cy := int((p.Y - g.bounds.Min.Y) / g.cell)
	if cx < 0 {
		cx = 0
	}
	if cx >= g.nx {
		cx = g.nx - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= g.ny {
		cy = g.ny - 1
	}
	return cx, cy
}

// Insert adds an item.
func (g *Grid) Insert(it Item) {
	cx, cy := g.cellIndex(it.Point)
	i := cy*g.nx + cx
	g.cells[i] = append(g.cells[i], it)
	g.count++
}

// ringSlack is the share of a cell by which Nearest shaves its ring bound.
// Cell coordinates are computed in floating point, so an item can sit a few
// ulps outside the cell it is filed under; without the slack, an item tied
// with the best found could be pruned at a cell boundary.
const ringSlack = 1e-6

// Nearest returns the stored item closest to q. ok is false when the grid is
// empty. Ties break toward the smaller ID, including ties at a squared
// distance that overflows to +Inf. q must not be NaN.
func (g *Grid) Nearest(q geo.Point) (Item, bool) {
	if g.count == 0 {
		return Item{ID: -1}, false
	}
	qx, qy := g.cellIndex(q)
	best := Item{ID: -1}
	bestD := math.Inf(1)
	// Expand rings of cells around q until the closest possible point of the
	// next unexplored ring cannot beat the best found.
	for ring := 0; ring < max(g.nx, g.ny); ring++ {
		if best.ID >= 0 {
			// Minimum distance to any cell in this ring.
			minDist := (float64(ring) - 1 - ringSlack) * g.cell
			if minDist > 0 && minDist*minDist > bestD {
				break
			}
		}
		// The ring's top and bottom rows, then its two cells on each grid
		// row between them.
		x0, x1 := max(qx-ring, 0), min(qx+ring, g.nx-1)
		if y := qy - ring; y >= 0 {
			best, bestD = g.nearestIn(q, y*g.nx+x0, y*g.nx+x1, best, bestD)
		}
		if y := qy + ring; ring > 0 && y < g.ny {
			best, bestD = g.nearestIn(q, y*g.nx+x0, y*g.nx+x1, best, bestD)
		}
		for y := max(qy-ring+1, 0); y <= min(qy+ring-1, g.ny-1); y++ {
			if x := qx - ring; x >= 0 {
				best, bestD = g.nearestIn(q, y*g.nx+x, y*g.nx+x, best, bestD)
			}
			if x := qx + ring; x < g.nx {
				best, bestD = g.nearestIn(q, y*g.nx+x, y*g.nx+x, best, bestD)
			}
		}
	}
	return best, best.ID >= 0
}

// nearestIn offers the items of cells c0…c1 against the best so far.
func (g *Grid) nearestIn(q geo.Point, c0, c1 int, best Item, bestD float64) (Item, float64) {
	for _, cell := range g.cells[c0 : c1+1] {
		for _, it := range cell {
			d := q.Dist2(it.Point)
			if best.ID < 0 || d < bestD || (d == bestD && it.ID < best.ID) {
				best, bestD = it, d
			}
		}
	}
	return best, bestD
}

// LinearNearest is the brute-force nearest neighbour over items accepted by
// accept (nil accepts every item). Ties break toward the smaller ID.
func LinearNearest(items []Item, q geo.Point, accept func(Item) bool) (Item, bool) {
	best := Item{ID: -1}
	bestD := math.Inf(1)
	for _, it := range items {
		if accept != nil && !accept(it) {
			continue
		}
		d := q.Dist2(it.Point)
		if best.ID < 0 || d < bestD || (d == bestD && it.ID < best.ID) {
			best, bestD = it, d
		}
	}
	return best, best.ID >= 0
}
