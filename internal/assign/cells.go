package assign

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"imtao/internal/geo"
	"imtao/internal/model"
)

// distEnt is a center-order sort entry: squared distance from the center,
// then task ID.
type distEnt struct {
	d2 float64
	id model.TaskID
}

// centerOrder fills ents with tasks keyed by squared distance from c and
// sorts them into the (d², ID) order every query from the center resolves
// against.
func centerOrder(ents []distEnt, th []model.TaskHot, c geo.Point, tasks []model.TaskID) []distEnt {
	ents = ents[:0]
	for _, sid := range tasks {
		ents = append(ents, distEnt{d2: c.Dist2(th[sid].Loc), id: sid})
	}
	slices.SortFunc(ents, func(a, b distEnt) int {
		if d := cmp.Compare(a.d2, b.d2); d != 0 {
			return d
		}
		return cmp.Compare(a.id, b.id)
	})
	return ents
}

// taskCells buckets one center's tasks, indexed by center-order rank, into a
// grid over their bounding box with about two tasks per cell, stored CSR:
// cell c owns slots start[c]:start[c+1] of rank and pt, in row-major cell
// order. The live tasks of a cell sit at the front of its segment,
// slots start[c]:end[c], so removing a task is one swap. The neighbour-list
// build (orders.go) and the cell pool both search it.
type taskCells struct {
	lo     geo.Point
	cell   float64
	nx, ny int
	start  []int32
	end    []int32
	// at maps a rank to its cell, slot a rank to its slot; rank and pt map
	// a slot back to its rank and location.
	at   []int32
	slot []int32
	rank []int32
	pt   []geo.Point
}

// build buckets pts (rank → location), recycling the backing arrays.
func (g *taskCells) build(pts []geo.Point) {
	n := len(pts)
	lo, hi := geo.Point{}, geo.Point{}
	if n > 0 {
		lo, hi = pts[0], pts[0]
	}
	for _, p := range pts {
		lo.X, lo.Y = min(lo.X, p.X), min(lo.Y, p.Y)
		hi.X, hi.Y = max(hi.X, p.X), max(hi.Y, p.Y)
	}
	w, h := hi.X-lo.X, hi.Y-lo.Y
	// The second term caps each axis at about n cells when the tasks lie
	// (nearly) on a line.
	cell := max(math.Sqrt(w*h*2/float64(n)), max(w, h)/float64(n))
	if !(cell > 0) {
		cell = 1
	}
	g.lo, g.cell = lo, cell
	g.nx, g.ny = int(w/cell)+1, int(h/cell)+1
	cells := g.nx * g.ny
	// Counting sort of the ranks by cell.
	g.start = slices.Grow(g.start[:0], cells+1)[:cells+1]
	clear(g.start)
	g.at = slices.Grow(g.at[:0], n)[:n]
	for r, p := range pts {
		cx, cy := g.cellOf(p)
		g.at[r] = int32(cy*g.nx + cx)
		g.start[g.at[r]+1]++
	}
	for i := 1; i <= cells; i++ {
		g.start[i] += g.start[i-1]
	}
	g.end = append(g.end[:0], g.start[:cells]...)
	g.slot = slices.Grow(g.slot[:0], n)[:n]
	g.rank = slices.Grow(g.rank[:0], n)[:n]
	g.pt = slices.Grow(g.pt[:0], n)[:n]
	for r, p := range pts {
		i := g.end[g.at[r]]
		g.end[g.at[r]]++
		g.slot[r], g.rank[i], g.pt[i] = i, int32(r), p
	}
}

// cellOf returns the cell holding p, clamped to the grid for points outside
// the bounding box. For any query point q in cell (qx, qy), clamped or not,
// every task in a cell at L∞ cell distance ring ≥ 1 lies at least
// (ring−1)·cell from q.
func (g *taskCells) cellOf(p geo.Point) (int, int) {
	return clampCell((p.X-g.lo.X)/g.cell, g.nx), clampCell((p.Y-g.lo.Y)/g.cell, g.ny)
}

func clampCell(v float64, n int) int {
	if !(v >= 0) {
		return 0
	}
	if v >= float64(n) {
		return n - 1
	}
	return int(v)
}

// ringBound is the squared lower bound on the distance from a query to any
// task in ring or beyond, shrunk by a relative 1e-9 so cell-index rounding
// can never cut a true answer.
func (g *taskCells) ringBound(ring int) float64 {
	lb := float64(ring-1) * g.cell * (1 - 1e-9)
	return lb * lb
}

// live reports whether rank r is still in the pool.
func (g *taskCells) live(r int32) bool { return g.slot[r] < g.end[g.at[r]] }

// remove takes rank r out of its cell's live prefix: the prefix's last
// entry moves into r's slot, and r's slot points just past the shortened
// prefix. Slots past a prefix are never read.
func (g *taskCells) remove(r int32) {
	c := g.at[r]
	i, e := g.slot[r], g.end[c]-1
	o := g.rank[e]
	g.rank[i], g.pt[i], g.slot[o], g.slot[r] = o, g.pt[e], i, e
	g.end[c] = e
}

// cellPool is the unassigned-task pool of phase 1 and of the game's
// re-baselines (SequentialOpt): the given tasks in
// center order over a taskCells grid. A pool over a center's own task list
// reads the center order from the instance's task geometry (orders.go);
// any other task set is sorted here. Algorithm 2 queries from the center
// or from the task just served. Queries from the center walk the center
// order with a cursor — the pool only shrinks, so the first live rank only
// moves forward — and queries from a task search the cells in square rings
// outward from the query's cell, stopping once the next ring's lower bound
// exceeds the best squared distance. Both resolve ties to the smaller ID,
// like every other pool.
type cellPool struct {
	in   *model.Instance
	ents []distEnt
	// ids maps rank → task: the geometry's center order, or buf.
	ids    []int32
	buf    []int32
	pts    []geo.Point // rank → location, the build input
	cells  taskCells
	cursor int32
	n      int
	last   int32 // the rank the last nearest returned
}

// poolFree recycles cellPool scratch across SequentialOpt calls: phase 1
// runs one per center, so without reuse every center pays fresh arrays.
// sync.Pool keeps the scratch per-P, which also suits concurrent callers.
var poolFree = sync.Pool{New: func() any { return new(cellPool) }}

// reset fills the pool with tasks for queries from c, recycling the
// backing arrays. When tasks is c's own task list — the instance's center
// c.ID at c's location, with tasks its Tasks slice itself — the center order
// comes from the instance's task geometry, which sorts it once per
// partitioned instance.
func (p *cellPool) reset(in *model.Instance, c *model.Center, tasks []model.TaskID) {
	th := in.HotTasks()
	p.in = in
	p.ids = nil
	if ownTasks(in, c, tasks) {
		if g := geometryOf(in).ordered(in, c.ID, p); g != nil {
			p.ids = g.order
		}
	}
	if p.ids == nil {
		p.ents = centerOrder(p.ents, th, c.Loc, tasks)
		p.buf = p.buf[:0]
		for _, e := range p.ents {
			p.buf = append(p.buf, int32(e.id))
		}
		p.ids = p.buf
	}
	p.gather(th, p.ids)
	p.cursor, p.n, p.last = 0, len(tasks), -1
}

// ownTasks reports whether tasks is center c's own task list in in: c's ID
// names an instance center at c's location whose Tasks is tasks itself.
func ownTasks(in *model.Instance, c *model.Center, tasks []model.TaskID) bool {
	if len(tasks) == 0 || int(c.ID) < 0 || int(c.ID) >= len(in.Centers) {
		return false
	}
	ic := &in.Centers[c.ID]
	return ic.Loc == c.Loc && sameTasks(ic.Tasks, tasks)
}

// gather lays the locations of ids (rank → task) out in rank order and
// buckets them into the cells.
func (p *cellPool) gather(th []model.TaskHot, ids []int32) {
	p.pts = p.pts[:0]
	for _, id := range ids {
		p.pts = append(p.pts, th[id].Loc)
	}
	p.cells.build(p.pts)
}

// release returns the pool to poolFree. The caller must not touch it
// afterwards.
func (p *cellPool) release() {
	p.in, p.ids = nil, nil
	poolFree.Put(p)
}

func (p *cellPool) len() int { return p.n }

// nearest answers Algorithm 2's query from the center (from < 0, q = c) by
// the center order and from any other q by the cells.
func (p *cellPool) nearest(q geo.Point, qRef model.NodeRef, from model.TaskID) (model.TaskID, float64, bool) {
	if p.n == 0 {
		return -1, 0, false
	}
	g := &p.cells
	if from < 0 {
		for !g.live(p.cursor) {
			p.cursor++
		}
		p.last = p.cursor
	} else {
		s := p.nearestSlot(q)
		if s < 0 {
			return -1, 0, false // q has no finite distance to any task
		}
		p.last = g.rank[s]
	}
	sid := model.TaskID(p.ids[p.last])
	t := &p.in.HotTasks()[sid]
	return sid, p.in.TravelTimeRef(q, qRef, t.Loc, t.Ref), true
}

// nearestSlot returns the slot of the live task nearest to q, or -1 when no
// live task lies at a finite distance.
func (p *cellPool) nearestSlot(q geo.Point) int32 {
	g := &p.cells
	qx, qy := g.cellOf(q)
	best, bestD := int32(-1), math.Inf(1)
	maxRing := max(g.nx, g.ny) - 1
	for ring := 0; ring <= maxRing; ring++ {
		if ring > 1 && g.ringBound(ring) > bestD {
			break
		}
		// The ring's top and bottom rows, then its two cells on each grid
		// row between them.
		x0, x1 := max(qx-ring, 0), min(qx+ring, g.nx-1)
		if y := qy - ring; y >= 0 {
			best, bestD = p.scanCells(q, y*g.nx+x0, y*g.nx+x1, best, bestD)
		}
		if y := qy + ring; ring > 0 && y < g.ny {
			best, bestD = p.scanCells(q, y*g.nx+x0, y*g.nx+x1, best, bestD)
		}
		for y := max(qy-ring+1, 0); y <= min(qy+ring-1, g.ny-1); y++ {
			if x := qx - ring; x >= 0 {
				best, bestD = p.scanCells(q, y*g.nx+x, y*g.nx+x, best, bestD)
			}
			if x := qx + ring; x < g.nx {
				best, bestD = p.scanCells(q, y*g.nx+x, y*g.nx+x, best, bestD)
			}
		}
	}
	return best
}

// scanCells offers the live tasks of cells c0…c1 against the best slot so
// far.
func (p *cellPool) scanCells(q geo.Point, c0, c1 int, best int32, bestD float64) (int32, float64) {
	g := &p.cells
	for c := c0; c <= c1; c++ {
		for i := g.start[c]; i < g.end[c]; i++ {
			d := q.Dist2(g.pt[i])
			if d < bestD || (d == bestD && best >= 0 && p.ids[g.rank[i]] < p.ids[g.rank[best]]) {
				best, bestD = i, d
			}
		}
	}
	return best, bestD
}

// take removes the task the last nearest returned.
func (p *cellPool) take() {
	p.cells.remove(p.last)
	p.n--
}

// appendLeft appends the live tasks to out, in center order.
func (p *cellPool) appendLeft(out []model.TaskID) []model.TaskID {
	for r := p.cursor; int(r) < len(p.ids); r++ {
		if p.cells.live(r) {
			out = append(out, model.TaskID(p.ids[r]))
		}
	}
	return out
}
