package assign

import (
	"math"
	"sync"
	"sync/atomic"

	"imtao/internal/fanout"
	"imtao/internal/geo"
	"imtao/internal/model"
	"imtao/internal/obs"
)

// Nearest-task work profile of the trial engine, added once per trial (and
// once per trial-base Reset) from local tallies.
var (
	mNearestFallbacks = obs.Default.Counter("imtao_trial_nearest_fallbacks_total",
		"trial nearest-task queries whose neighbour list held no live task and fell back to a scan of the live pool")
	mTravelMemoHits = obs.Default.Counter("imtao_trial_travel_memo_hits_total",
		"trial-engine travel times (trial queries and trial-base route legs) read from the order table's memo")
	mTravelMemoMisses = obs.Default.Counter("imtao_trial_travel_memo_misses_total",
		"trial-engine travel times computed by the metric because the order table's memo had no answer")
)

// neighbourListLen is the width of a task's neighbour list: the first 16
// entries of the (squared distance, ID) order from the task over its
// center's other tasks. Queries from a task just served are answered by one
// of its 15 nearest others 99.2% of the time on the 10k SYN road benchmark
// and 98.7% on the sharded 100k one; the rest take the exact fallback scan.
const neighbourListLen = 16

// TaskOrders is the per-solve nearest-task table of the phase-2 trial engine
// (DESIGN.md §11). For every center that plays it holds, over the center's
// own tasks:
//
//   - the center order: the tasks sorted by (squared distance from the
//     center, task ID), which answers queries from the center;
//   - one neighbour list per task: the first neighbourListLen entries of the
//     (squared distance, task ID) order from the task over the center's
//     other tasks, which answer queries from a task just served;
//   - a travel-time memo with one slot per center-order entry and one per
//     list entry.
//
// A center's part is built on first use under its own sync.Once, so shard
// games build disjoint centers concurrently and centers that never play
// cost nothing; Build builds a known set of parts up front, concurrently.
// The memo assumes travel time is a pure function of the two
// endpoints while the table lives — true within one solve, since core.Run
// pins the center tables before the game starts — so a table must not
// outlive the solve that made it. Safe for concurrent use.
type TaskOrders struct {
	in *model.Instance
	th []model.TaskHot
	// rank maps a task ID to its position in its center's order. It is
	// valid only for tasks listed by a built center; readers confirm it
	// against that center's tasks.
	rank    []int32
	centers []centerOrders
}

// centerOrders is one center's part of the table, immutable after its
// build except for the memo slots.
type centerOrders struct {
	once sync.Once
	loc  geo.Point
	ref  model.NodeRef
	// tasks is the center order: rank → task.
	tasks []model.TaskID
	// nbr holds the neighbour lists as ranks, width entries per row: row r
	// is tasks[r]'s list. width is min(neighbourListLen, len(tasks)−1).
	nbr   []int32
	width int
	// ctt[r] memoizes tt(center, tasks[r]); ntt[i] memoizes the travel time
	// from row i/width's task to the task nbr[i] names. A slot holds the
	// complemented float64 bits, so the zero value reads as empty. fb[r]
	// memoizes the latest fallback answer from tasks[r].
	ctt []atomic.Uint64
	ntt []atomic.Uint64
	fb  []fbSlot
}

// fbSlot memoizes a row's latest fallback answer and its travel time.
// Fallback answers vary with the live pool, so the slot is overwritten, and
// it is read as a seqlock: tag packs a sequence number (high half, odd while
// a writer holds the slot) with the answer's rank+1 (low half, 0 = empty),
// and a reader takes tt only if the tag names its answer and is unchanged
// after the read.
type fbSlot struct {
	tag atomic.Uint64
	tt  atomic.Uint64
}

func (s *fbSlot) load(r int32) (float64, bool) {
	t := s.tag.Load()
	if t>>32&1 != 0 || uint32(t) != uint32(r+1) {
		return 0, false
	}
	v := s.tt.Load()
	if s.tag.Load() != t {
		return 0, false
	}
	return math.Float64frombits(v), true
}

// store publishes (r, tt) unless another writer holds the slot.
func (s *fbSlot) store(r int32, tt float64) {
	t := s.tag.Load()
	if t>>32&1 != 0 || !s.tag.CompareAndSwap(t, t+1<<32) {
		return
	}
	s.tt.Store(math.Float64bits(tt))
	s.tag.Store((t>>32+2)<<32 | uint64(uint32(r+1)))
}

// NewTaskOrders makes an empty table for in. Centers are built lazily.
func NewTaskOrders(in *model.Instance) *TaskOrders {
	in.EnsureHot()
	return &TaskOrders{
		in:      in,
		th:      in.HotTasks(),
		rank:    make([]int32, len(in.Tasks)),
		centers: make([]centerOrders, len(in.Centers)),
	}
}

// Build builds the parts of the given centers on up to par goroutines (0
// means GOMAXPROCS) and returns once all are built. A part's build is deterministic and touches
// only its own center's slots, so the build order changes nothing.
func (o *TaskOrders) Build(centers []model.CenterID, par int) {
	fanout.Each(par, len(centers), func(i int) { o.center(centers[i]) })
}

// center returns ci's part of the table, building it on first use.
func (o *TaskOrders) center(ci model.CenterID) *centerOrders {
	co := &o.centers[ci]
	co.once.Do(func() { o.build(ci, co) })
	return co
}

func (o *TaskOrders) build(ci model.CenterID, co *centerOrders) {
	c := &o.in.Centers[ci]
	th := o.th
	co.loc, co.ref = c.Loc, o.in.CenterRef(ci)
	ents := centerOrder(nil, th, c.Loc, c.Tasks)
	n := len(ents)
	co.tasks = make([]model.TaskID, n)
	pts := make([]geo.Point, n)
	for r, e := range ents {
		co.tasks[r] = e.id
		pts[r] = th[e.id].Loc
		o.rank[e.id] = int32(r)
	}
	co.width = max(min(neighbourListLen, n-1), 0)
	co.nbr = make([]int32, n*co.width)
	co.ctt = make([]atomic.Uint64, n)
	co.ntt = make([]atomic.Uint64, n*co.width)
	co.fb = make([]fbSlot, n)
	if co.width > 0 {
		var g taskCells
		g.build(pts)
		buildNeighbourLists(&g, co.tasks, co.width, co.nbr)
	}
}

// buildNeighbourLists fills nbr with every task's neighbour list: row r
// holds, as ranks, the first width entries of the (squared distance, ID)
// order from task r over the other tasks. The cells keep the build
// subquadratic: each row scans square rings of cells outward from its own
// cell and stops once the next ring's lower bound exceeds the row's current
// width-th distance. No task is removed yet, so a run of cells along one
// grid row is one contiguous scan.
func buildNeighbourLists(g *taskCells, tasks []model.TaskID, width int, nbr []int32) {
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
						if d2 == kth && tasks[r] > tasks[ranks[width-1]] {
							continue
						}
						j = width - 1
					}
					for j > 0 && (d2 < keys[j-1] || (d2 == keys[j-1] && tasks[r] < tasks[ranks[j-1]])) {
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
	o      *TaskOrders
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
	p.o, p.co = b.orders, b.co
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
	if r := p.o.rank[sid]; p.live(r) {
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
	for r := p.cursor; int(r) < len(p.co.tasks); r++ {
		if p.live(r) {
			out = append(out, p.co.tasks[r])
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
		return co.tasks[r], p.travel(&co.ctt[r], q, qRef, co.tasks[r]), true
	}
	fr := p.o.rank[from]
	if !p.live(fr) {
		row := int(fr) * co.width
		for j, r := range co.nbr[row : row+co.width] {
			if p.live(r) {
				p.last = r
				return co.tasks[r], p.travel(&co.ntt[row+j], q, qRef, co.tasks[r]), true
			}
		}
	}
	p.fallbacks++
	th := p.o.th
	best, bestR, bestD := model.TaskID(-1), int32(-1), math.Inf(1)
	for r := p.cursor; int(r) < len(co.tasks); r++ {
		if !p.live(r) {
			continue
		}
		sid := co.tasks[r]
		if d := q.Dist2(th[sid].Loc); d < bestD || (d == bestD && sid < best) {
			best, bestR, bestD = sid, r, d
		}
	}
	p.last = bestR
	if tt, ok := co.fb[fr].load(bestR); ok {
		p.hits++
		return best, tt, true
	}
	p.misses++
	t := &th[best]
	tt := p.o.in.TravelTimeRef(q, qRef, t.Loc, t.Ref)
	co.fb[fr].store(bestR, tt)
	return best, tt, true
}

// travel returns tt(q, sid) through a memo slot and tallies the lookup.
func (p *orderPool) travel(slot *atomic.Uint64, q geo.Point, qRef model.NodeRef, sid model.TaskID) float64 {
	tt, hit := p.o.slotTravel(slot, q, qRef, sid)
	if hit {
		p.hits++
	} else {
		p.misses++
	}
	return tt
}

// slotTravel returns tt(q, sid) from the memo slot, computing and storing it
// on a miss, and reports whether it was a hit. Concurrent runners may race
// to fill a slot; they store the same bits.
func (o *TaskOrders) slotTravel(slot *atomic.Uint64, q geo.Point, qRef model.NodeRef, sid model.TaskID) (float64, bool) {
	if v := slot.Load(); v != 0 {
		return math.Float64frombits(^v), true
	}
	t := &o.th[sid]
	tt := o.in.TravelTimeRef(q, qRef, t.Loc, t.Ref)
	slot.Store(^math.Float64bits(tt))
	return tt, false
}

// leg returns the travel time from task from (the center when from < 0) to
// task to, both of co's tasks, through the memo slot when to has one in
// from's orders, and reports whether the memo answered.
func (o *TaskOrders) leg(co *centerOrders, from, to model.TaskID) (float64, bool) {
	tr := o.rank[to]
	if from < 0 {
		return o.slotTravel(&co.ctt[tr], co.loc, co.ref, to)
	}
	f := &o.th[from]
	row := int(o.rank[from]) * co.width
	for j, r := range co.nbr[row : row+co.width] {
		if r == tr {
			return o.slotTravel(&co.ntt[row+j], f.Loc, f.Ref, to)
		}
	}
	t := &o.th[to]
	return o.in.TravelTimeRef(f.Loc, f.Ref, t.Loc, t.Ref), false
}
