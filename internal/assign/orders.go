package assign

import (
	"math"
	"sync"

	"imtao/internal/fanout"
	"imtao/internal/geo"
	"imtao/internal/model"
	"imtao/internal/obs"
)

// Nearest-task work profile of the trial engine, added once per trial head
// and trial from local tallies.
var (
	mNearestFallbacks = obs.Default.Counter("imtao_trial_nearest_fallbacks_total",
		"trial nearest-task queries whose neighbour list held no live task and fell back to a scan of the live pool")
	mTravelMemoHits = obs.Default.Counter("imtao_trial_travel_memo_hits_total",
		"trial-engine travel times read from the order table's memo")
	mTravelMemoMisses = obs.Default.Counter("imtao_trial_travel_memo_misses_total",
		"trial-engine travel times computed by the metric because the order table's memo had no answer")
)

// neighbourListLen is the width of a task's neighbour list: the first 16
// entries of the (squared distance, ID) order from the task over its
// center's other tasks. Queries from a task just served are answered by one
// of its 15 nearest others 99.2% of the time on the 10k SYN road benchmark
// and 98.7% on the sharded 100k one; the rest take the exact fallback scan.
const neighbourListLen = 16

// taskGeometry is the solve-independent half of the nearest-task table
// (DESIGN.md §11). For every center it holds, over the center's own tasks:
//
//   - the center order: the tasks sorted by (squared distance from the
//     center, task ID), which answers queries from the center;
//   - once a game needs the center, one neighbour list per task: the first
//     neighbourListLen entries of the (squared distance, task ID) order from
//     the task over the center's other tasks, which answer queries from a
//     task just served, and the task → rank map the lists are read through.
//
// All of it is read off the center's location, the center's task list and
// the task locations — never the metric, pins or congestion — so it lives on
// the partitioned instance (model.Instance.TaskGeometry), and every solve of
// the instance shares what earlier ones built. Each center's order and lists
// are built on first use, each under its own sync.Once, and never change
// afterwards.
type taskGeometry struct {
	centers []centerGeometry
	// rank maps a task ID to its position in its center's order. It is
	// valid only for tasks of centers whose lists are built, and is
	// allocated with the first list.
	rankOnce sync.Once
	rank     []int32
}

// centerGeometry is one center's part of the geometry.
type centerGeometry struct {
	orderOnce, listOnce sync.Once
	// src is the task list the part was built from; a center whose location
	// or task list no longer matches the part does not get it.
	src []model.TaskID
	orderLists
}

// orderLists is what a center's part answers queries with.
type orderLists struct {
	// loc is the center location; order is the center order, rank → task
	// ID.
	loc   geo.Point
	order []int32
	// rank is the task → rank map of the lists: the geometry's, or a
	// solve's private one. nbr holds the lists as ranks, width entries per
	// row: row r is order[r]'s list. width is min(neighbourListLen,
	// len(order)−1).
	rank  []int32
	nbr   []int32
	width int
}

// geometryOf returns in's task geometry, attaching an empty one on first use.
func geometryOf(in *model.Instance) *taskGeometry {
	return in.TaskGeometry(func() any { return newTaskGeometry(in) }).(*taskGeometry)
}

// newTaskGeometry returns an empty task geometry for in's centers.
func newTaskGeometry(in *model.Instance) *taskGeometry {
	return &taskGeometry{centers: make([]centerGeometry, len(in.Centers))}
}

// ordered returns center ci's part with its center order built, sorting in
// scratch's buffer on first use, or nil when the center no longer matches
// the part.
func (t *taskGeometry) ordered(in *model.Instance, ci model.CenterID, scratch *cellPool) *centerGeometry {
	if int(ci) < 0 || int(ci) >= len(t.centers) || int(ci) >= len(in.Centers) {
		return nil
	}
	c, g := &in.Centers[ci], &t.centers[ci]
	g.orderOnce.Do(func() { g.sortFrom(c, in.HotTasks(), scratch) })
	if !g.builtFrom(c) {
		return nil
	}
	return g
}

// listed is ordered with the part's rank map and neighbour lists built too.
func (t *taskGeometry) listed(in *model.Instance, ci model.CenterID, scratch *cellPool) *centerGeometry {
	g := t.ordered(in, ci, scratch)
	if g == nil {
		return nil
	}
	g.listOnce.Do(func() {
		t.rankOnce.Do(func() { t.rank = make([]int32, len(in.Tasks)) })
		g.buildLists(in.HotTasks(), t.rank, scratch)
	})
	return g
}

// builtFrom reports whether the part was built from c as it stands: the
// same location and the same Tasks slice (pointer and length). A task list
// edited in place, keeping its slice, is not caught.
func (g *centerGeometry) builtFrom(c *model.Center) bool {
	return g.loc == c.Loc && sameTasks(g.src, c.Tasks)
}

// sameTasks reports whether a and b are one slice: the same length over the
// same first element.
func sameTasks(a, b []model.TaskID) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// sortFrom records c as the part's source and sorts its tasks into the
// center order, in scratch's sort buffer, so only the order is allocated.
func (g *centerGeometry) sortFrom(c *model.Center, th []model.TaskHot, scratch *cellPool) {
	g.loc, g.src = c.Loc, c.Tasks
	scratch.ents = centerOrder(scratch.ents, th, c.Loc, c.Tasks)
	g.order = make([]int32, len(scratch.ents))
	for r, e := range scratch.ents {
		g.order[r] = int32(e.id)
	}
}

// buildLists enters the part's tasks into rank and builds their neighbour
// lists over scratch's cells.
func (g *centerGeometry) buildLists(th []model.TaskHot, rank []int32, scratch *cellPool) {
	n := len(g.order)
	for r, id := range g.order {
		rank[id] = int32(r)
	}
	g.rank = rank
	g.width = max(min(neighbourListLen, n-1), 0)
	g.nbr = make([]int32, n*g.width)
	if g.width > 0 {
		scratch.gather(th, g.order)
		buildNeighbourLists(&scratch.cells, g.order, g.width, g.nbr)
	}
}

// TaskOrders is the per-solve nearest-task table of the phase-2 trial engine
// (DESIGN.md §11): for every center that plays, its part of the instance's
// task geometry — the center order, neighbour lists and ranks — plus a
// travel-time memo with one slot per center-order entry and one per list
// entry.
//
// A center's part is bound on first use under its own sync.Once, so shard
// games bind disjoint centers concurrently and centers that never play cost
// nothing; Build binds a known set of parts up front, concurrently. A center
// whose geometry part no longer matches it (DESIGN.md §11) gets a private
// part for this table. The memo assumes travel time is a pure function of
// the two endpoints while the table lives — true within one solve, since
// core.Run pins the center tables before the game starts — so a table must
// not outlive the solve that made it. Binding is safe for concurrent use;
// a center's memo slots are filled only by the goroutine stepping the game
// that holds the center.
type TaskOrders struct {
	in      *model.Instance
	th      []model.TaskHot
	geom    *taskGeometry
	centers []centerOrders
	// privRank is the rank map of the private parts, allocated with the
	// first one.
	privOnce sync.Once
	privRank []int32
}

// centerOrders is one center's part of the table: its geometry's orders and
// lists, immutable, and its memo slots.
type centerOrders struct {
	orderLists
	once sync.Once
	// ctt[r] memoizes tt(center, order[r]); ntt[i] memoizes the travel time
	// from row i/width's task to the task nbr[i] names. A slot holds the
	// complemented float64 bits, so the zero value reads as empty. fb[r]
	// memoizes the latest fallback answer from order[r].
	ctt []uint64
	ntt []uint64
	fb  []fbSlot
}

// fbSlot memoizes a row's latest fallback answer and its travel time.
// Fallback answers vary with the live pool, so the slot is overwritten; r
// holds the answer's rank+1, 0 while empty.
type fbSlot struct {
	r  int32
	tt float64
}

// NewTaskOrders makes an empty table for in over in's task geometry.
// Centers are bound lazily.
func NewTaskOrders(in *model.Instance) *TaskOrders {
	in.EnsureHot()
	return &TaskOrders{
		in:      in,
		th:      in.HotTasks(),
		geom:    geometryOf(in),
		centers: make([]centerOrders, len(in.Centers)),
	}
}

// Build binds the parts of the given centers on up to GOMAXPROCS
// goroutines and returns once all are bound. A part's build is
// deterministic and touches only its own center's slots, so the build order
// changes nothing.
func (o *TaskOrders) Build(centers []model.CenterID) {
	fanout.Each(len(centers), func(i int) { o.center(centers[i]) })
}

// center returns ci's part of the table, binding it on first use.
func (o *TaskOrders) center(ci model.CenterID) *centerOrders {
	co := &o.centers[ci]
	co.once.Do(func() { o.bind(ci, co) })
	return co
}

// bind gives co center ci's geometry part with its lists — the instance's,
// or a private one when that no longer matches the center — and fresh memo
// slots.
func (o *TaskOrders) bind(ci model.CenterID, co *centerOrders) {
	scratch := poolFree.Get().(*cellPool)
	defer scratch.release()
	g := o.geom.listed(o.in, ci, scratch)
	if g == nil {
		o.privOnce.Do(func() { o.privRank = make([]int32, len(o.in.Tasks)) })
		g = &centerGeometry{}
		g.sortFrom(&o.in.Centers[ci], o.th, scratch)
		g.buildLists(o.th, o.privRank, scratch)
	}
	co.orderLists = g.orderLists
	n := len(g.order)
	co.ctt = make([]uint64, n)
	co.ntt = make([]uint64, n*g.width)
	co.fb = make([]fbSlot, n)
}

// buildNeighbourLists fills nbr with every task's neighbour list: row r
// holds, as ranks, the first width entries of the (squared distance, ID)
// order from task r over the other tasks. The cells keep the build
// subquadratic: each row scans square rings of cells outward from its own
// cell and stops once the next ring's lower bound exceeds the row's current
// width-th distance. No task is removed yet, so a run of cells along one
// grid row is one contiguous scan.
func buildNeighbourLists(g *taskCells, order []int32, width int, nbr []int32) {
	nx, ny := g.nx, g.ny
	// The row under construction: keys[:cnt] ascending by (d², ID), with
	// the ranks alongside. Ties are rare, so the ID is looked up only to
	// break one.
	var keys [neighbourListLen]float64
	var ranks [neighbourListLen]int32
	maxRing := max(nx, ny) - 1
	for c := 0; c < nx*ny; c++ {
		qx, qy := c%nx, c/nx
		for qi := g.start[c]; qi < g.start[c+1]; qi++ {
			q := g.pt[qi]
			cnt := 0
			kth := math.Inf(1) // the width-th distance once the row is full
			// scan offers the tasks of cells x0…x1 of grid row y.
			scan := func(y, x0, x1 int) {
				x0, x1 = max(x0, 0), min(x1, nx-1)
				if y < 0 || y >= ny || x0 > x1 {
					return
				}
				for i := g.start[y*nx+x0]; i < g.start[y*nx+x1+1]; i++ {
					d2 := q.Dist2(g.pt[i])
					if d2 > kth || i == qi {
						continue
					}
					r := g.rank[i]
					j := cnt
					if cnt < width {
						cnt++
					} else {
						if d2 == kth && order[r] > order[ranks[width-1]] {
							continue
						}
						j = width - 1
					}
					for j > 0 && (d2 < keys[j-1] || (d2 == keys[j-1] && order[r] < order[ranks[j-1]])) {
						keys[j], ranks[j] = keys[j-1], ranks[j-1]
						j--
					}
					keys[j], ranks[j] = d2, r
					if cnt == width {
						kth = keys[width-1]
					}
				}
			}
			for ring := 0; ring <= maxRing; ring++ {
				if ring > 1 && g.ringBound(ring) > kth {
					break
				}
				// The ring's top and bottom rows, then its two cells on
				// each grid row between them.
				scan(qy-ring, qx-ring, qx+ring)
				if ring == 0 {
					continue
				}
				scan(qy+ring, qx-ring, qx+ring)
				for y := qy - ring + 1; y < qy+ring; y++ {
					scan(y, qx-ring, qx-ring)
					scan(y, qx+ring, qx+ring)
				}
			}
			copy(nbr[int(g.rank[qi])*width:], ranks[:width])
		}
	}
}

// orderPool is a TrialRunner's trial task pool: the base's start state S_0
// over one center's orders, shrinking as the trial serves tasks. Liveness is
// one stamp per center-order rank — live iff stamp < epoch — so removing a
// task is one store and restoring S_0 for the next trial is one epoch bump.
// Copied stamps are 0 for S_0 and math.MaxUint32 for the center's other
// tasks, which are never live.
//
// Because the pool only shrinks between a trial's start and the next, the
// first live entry of the center order only moves forward: cursor tracks it
// for queries from the center, and every rank before it is dead.
type orderPool struct {
	in     *model.Instance
	th     []model.TaskHot
	co     *centerOrders
	stamp  []uint32
	base   []uint32
	epoch  uint32
	baseN  int
	n      int
	cursor int32
	last   int32 // the rank the last nearest returned
	// Per-trial tallies, added to the obs counters by flush.
	fallbacks, hits, misses int64
}

// bind points the pool at a freshly Reset base.
func (p *orderPool) bind(b *TrialBase) {
	p.in, p.th, p.co = b.in, b.in.HotTasks(), b.co
	p.base = b.stamp
	p.stamp = append(p.stamp[:0], b.stamp...)
	p.baseN = b.poolN
	p.epoch = 0
}

// start restores S_0 for a new trial.
func (p *orderPool) start() {
	if p.epoch == math.MaxUint32-1 {
		copy(p.stamp, p.base)
		p.epoch = 0
	}
	p.epoch++
	p.n = p.baseN
	p.cursor = 0
	p.fallbacks, p.hits, p.misses = 0, 0, 0
}

// flush adds the trial's tallies to the obs counters.
func (p *orderPool) flush() {
	mNearestFallbacks.Add(p.fallbacks)
	mTravelMemoHits.Add(p.hits)
	mTravelMemoMisses.Add(p.misses)
}

func (p *orderPool) len() int { return p.n }

// live reports whether rank r is in the trial pool.
func (p *orderPool) live(r int32) bool { return p.stamp[r] < p.epoch }

// first advances the cursor to the first live rank and returns it. The
// pool must be non-empty.
func (p *orderPool) first() int32 {
	for !p.live(p.cursor) {
		p.cursor++
	}
	return p.cursor
}

func (p *orderPool) remove(sid model.TaskID) {
	if r := p.co.rank[sid]; p.live(r) {
		p.stamp[r] = p.epoch
		p.n--
	}
}

// take removes the task the last nearest returned.
func (p *orderPool) take() {
	p.stamp[p.last] = p.epoch
	p.n--
}

// appendLeft appends the live tasks to out, in center order.
func (p *orderPool) appendLeft(out []model.TaskID) []model.TaskID {
	for r := p.cursor; int(r) < len(p.co.order); r++ {
		if p.live(r) {
			out = append(out, model.TaskID(p.co.order[r]))
		}
	}
	return out
}

// nearest answers Algorithm 2's query from the center (from < 0) by
// advancing the cursor, and from task from by its neighbour list. Both
// orders use q.Dist2 with ties to the smaller ID, and each is a prefix of
// the order over a superset of the pool — the list's superset excludes
// from, which the pool does not hold once a worker stands on it — so the
// first live entry is exactly the pool's nearest task. A list with no live
// entry, or a from still in the pool, falls back to scanning the live
// ranks, all at or after the cursor.
func (p *orderPool) nearest(q geo.Point, qRef model.NodeRef, from model.TaskID) (model.TaskID, float64, bool) {
	if p.n == 0 {
		return -1, 0, false
	}
	co := p.co
	if from < 0 {
		r := p.first()
		p.last = r
		sid := model.TaskID(co.order[r])
		return sid, p.travel(&co.ctt[r], q, qRef, sid), true
	}
	fr := co.rank[from]
	if !p.live(fr) {
		row := int(fr) * co.width
		for j, r := range co.nbr[row : row+co.width] {
			if p.live(r) {
				p.last = r
				sid := model.TaskID(co.order[r])
				return sid, p.travel(&co.ntt[row+j], q, qRef, sid), true
			}
		}
	}
	p.fallbacks++
	th := p.th
	best, bestR, bestD := model.TaskID(-1), int32(-1), math.Inf(1)
	for r := p.cursor; int(r) < len(co.order); r++ {
		if !p.live(r) {
			continue
		}
		sid := model.TaskID(co.order[r])
		if d := q.Dist2(th[sid].Loc); d < bestD || (d == bestD && sid < best) {
			best, bestR, bestD = sid, r, d
		}
	}
	p.last = bestR
	if fb := &co.fb[fr]; fb.r == bestR+1 {
		p.hits++
		return best, fb.tt, true
	}
	p.misses++
	t := &th[best]
	tt := p.in.TravelTimeRef(q, qRef, t.Loc, t.Ref)
	co.fb[fr] = fbSlot{r: bestR + 1, tt: tt}
	return best, tt, true
}

// travel returns tt(q, sid) from a memo slot, computing and storing it on a
// miss, and tallies the lookup.
func (p *orderPool) travel(slot *uint64, q geo.Point, qRef model.NodeRef, sid model.TaskID) float64 {
	if v := *slot; v != 0 {
		p.hits++
		return math.Float64frombits(^v)
	}
	p.misses++
	t := &p.th[sid]
	tt := p.in.TravelTimeRef(q, qRef, t.Loc, t.Ref)
	*slot = ^math.Float64bits(tt)
	return tt
}
