package index

import (
	"math"

	"imtao/internal/geo"
)

// Grid is a dynamic uniform-grid index supporting insertion and removal.
// The sequential assignment loop removes each task the moment it is assigned,
// so the dynamic structure is a natural fit; the KD-tree covers the static
// filtered-query style instead. Both are benchmarked against each other and
// against a linear scan in the ablation benches.
//
// Item IDs must be non-negative: presence is tracked in dense epoch-stamped
// slot arrays indexed by ID, which turns the former map lookups in the
// phase-2 trial loop into two array reads and makes Reset O(1).
type Grid struct {
	bounds geo.Rect
	cell   float64
	nx, ny int
	cells  [][]Item
	count  int

	// slotPt/slotEpoch replace a byID map: id is present iff
	// slotEpoch[id] == epoch, and slotPt[id] then holds its point.
	// Reset bumps epoch instead of clearing, so a pooled Grid restarts
	// without touching the (potentially large) slot arrays.
	slotPt    []geo.Point
	slotEpoch []uint32
	epoch     uint32
}

// NewGrid creates a grid covering bounds with roughly targetPerCell items per
// cell assuming n items uniformly spread. n and targetPerCell merely size the
// cells; any number of items may be inserted.
func NewGrid(bounds geo.Rect, n, targetPerCell int) *Grid {
	g := &Grid{}
	g.Reset(bounds, n, targetPerCell)
	return g
}

// Reset re-initialises the grid to cover bounds with the given sizing,
// discarding all stored items. It reuses the cell and item backing arrays
// when they are large enough, so a pooled Grid can serve many short-lived
// index builds without re-allocating — the hot pattern of the trial
// re-assignments in phase 2.
func (g *Grid) Reset(bounds geo.Rect, n, targetPerCell int) {
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
	nx := int(math.Ceil(bounds.Width()/cell)) + 1
	ny := int(math.Ceil(bounds.Height()/cell)) + 1
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	g.bounds = bounds
	g.cell = cell
	g.nx, g.ny = nx, ny
	if cap(g.cells) >= nx*ny {
		g.cells = g.cells[:nx*ny]
		for i := range g.cells {
			g.cells[i] = g.cells[i][:0]
		}
	} else {
		g.cells = make([][]Item, nx*ny)
	}
	g.epoch++
	if g.epoch == 0 {
		// Epoch wrapped: stale stamps from 2^32 resets ago could alias, so
		// pay for one full clear and restart at 1 (0 stays "never present").
		clear(g.slotEpoch)
		g.epoch = 1
	}
	g.count = 0
}

// ensureSlot grows the slot arrays to cover id.
func (g *Grid) ensureSlot(id int) {
	if id < len(g.slotEpoch) {
		return
	}
	n := len(g.slotEpoch) * 2
	if n <= id {
		n = id + 1
	}
	pt := make([]geo.Point, n)
	copy(pt, g.slotPt)
	ep := make([]uint32, n)
	copy(ep, g.slotEpoch)
	g.slotPt, g.slotEpoch = pt, ep
}

// has reports whether id is currently stored.
func (g *Grid) has(id int) bool {
	return id >= 0 && id < len(g.slotEpoch) && g.slotEpoch[id] == g.epoch
}

// Len returns the number of items currently stored.
func (g *Grid) Len() int { return g.count }

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

// Insert adds an item. Inserting an ID that is already present replaces its
// location. IDs must be non-negative.
func (g *Grid) Insert(it Item) {
	g.ensureSlot(it.ID)
	if g.slotEpoch[it.ID] == g.epoch {
		g.removeAt(it.ID, g.slotPt[it.ID])
		g.count--
	}
	cx, cy := g.cellIndex(it.Point)
	i := cy*g.nx + cx
	g.cells[i] = append(g.cells[i], it)
	g.slotPt[it.ID] = it.Point
	g.slotEpoch[it.ID] = g.epoch
	g.count++
}

// Remove deletes the item with the given id, reporting whether it was present.
func (g *Grid) Remove(id int) bool {
	if !g.has(id) {
		return false
	}
	g.removeAt(id, g.slotPt[id])
	g.slotEpoch[id] = 0
	g.count--
	return true
}

func (g *Grid) removeAt(id int, p geo.Point) {
	cx, cy := g.cellIndex(p)
	i := cy*g.nx + cx
	cell := g.cells[i]
	for j, it := range cell {
		if it.ID == id {
			cell[j] = cell[len(cell)-1]
			g.cells[i] = cell[:len(cell)-1]
			return
		}
	}
}

// Contains reports whether an item with the given id is stored.
func (g *Grid) Contains(id int) bool { return g.has(id) }

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

// InRange returns all items within radius r of q.
func (g *Grid) InRange(q geo.Point, r float64) []Item {
	return g.InRangeAppend(nil, q, r)
}

// InRangeAppend appends all items within radius r of q to out and returns
// the extended slice. Passing a recycled out[:0] makes repeated range
// queries allocation-free once the buffer has grown — the admissibility
// prefilter in the phase-2 game calls this once per iteration.
func (g *Grid) InRangeAppend(out []Item, q geo.Point, r float64) []Item {
	if r < 0 || g.count == 0 {
		return out
	}
	r2 := r * r
	lo := geo.Pt(q.X-r, q.Y-r)
	hi := geo.Pt(q.X+r, q.Y+r)
	x0, y0 := g.cellIndex(lo)
	x1, y1 := g.cellIndex(hi)
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			for _, it := range g.cells[cy*g.nx+cx] {
				if q.Dist2(it.Point) <= r2 {
					out = append(out, it)
				}
			}
		}
	}
	return out
}

// Items returns a snapshot of all stored items in unspecified order.
func (g *Grid) Items() []Item {
	return g.ItemsAppend(make([]Item, 0, g.count))
}

// ItemsAppend appends every stored item to out and returns the extended
// slice — the allocation-free variant of Items for recycled buffers.
func (g *Grid) ItemsAppend(out []Item) []Item {
	for _, cell := range g.cells {
		out = append(out, cell...)
	}
	return out
}

// LinearNearest is the reference brute-force nearest-neighbour used in tests
// and the index-choice ablation. Ties break toward the smaller ID.
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
