// Package assign implements phase 1 of IMTAO: center-independent spatial
// task assignment. It provides the paper's two per-center assigners:
//
//   - Sequential — the efficient sequential task assignment heuristic
//     (paper Algorithm 2): workers sorted marginal-first, each greedily
//     extending a delivery sequence with the nearest unassigned task that
//     still meets its deadline.
//
//   - Optimal — the "Opt" baseline (paper §VI-A): enumerate every valid
//     task delivery set (VTDS) per worker, then resolve conflicts exactly
//     with branch-and-bound set packing maximizing the number of assigned
//     tasks.
//
// Both operate on an explicit worker/task list so that phase 2 can re-run
// them over a recipient center's own plus borrowed workers (the
// bi-directional collaboration of paper §V-D).
package assign

import (
	"cmp"
	"math"
	"math/rand"
	"slices"

	"imtao/internal/geo"
	"imtao/internal/index"
	"imtao/internal/model"
	"imtao/internal/obs"
	"imtao/internal/slab"
)

// Result is the outcome of a per-center assignment: the routes of A(c) —
// one per worker that received a non-empty VTDS — plus the unused workers
// c.W_left and unassigned tasks c.S_left that feed phase 2.
type Result struct {
	Routes      []model.Route
	LeftWorkers []model.WorkerID
	LeftTasks   []model.TaskID
	// Stats counts the work the call performed, feeding the obs layer's
	// per-center events and pipeline counters. Deterministic for a given
	// input, so results stay comparable across parallelism levels.
	Stats Stats
	// Sequential reports that the result is Sequential's own answer for its
	// inputs: SequentialOpt at the paper's marginal-first order and
	// TrialRunner.Trial set it. The phase-2 game takes such a phase-1 result
	// as a center's first trial baseline instead of re-running Sequential
	// (DESIGN.md §11).
	Sequential bool
}

// Stats is the work profile of one assignment call.
type Stats struct {
	// TasksScanned counts candidate-task evaluations: nearest-neighbour
	// pool queries for Sequential, VTDS extension probes for Optimal.
	TasksScanned int
	// DeadlineRejections counts candidates discarded for missing their
	// deadline: sequence-ending nearest-task failures for Sequential,
	// infeasible VTDS extensions for Optimal.
	DeadlineRejections int
	// RouteExtensions counts accepted task placements: tasks appended to a
	// route for Sequential, feasible VTDS extensions for Optimal.
	RouteExtensions int
}

// Pipeline-wide work counters, aggregated once per assignment call from the
// local Stats so the hot loops never touch shared cache lines.
var (
	mCalls = obs.Default.Counter("imtao_assign_calls_total",
		"per-center assignment calls (phase 1 and phase-2 trials)")
	mTasksScanned = obs.Default.Counter("imtao_assign_tasks_scanned_total",
		"candidate-task evaluations across all assignment calls")
	mDeadlineRej = obs.Default.Counter("imtao_assign_deadline_rejections_total",
		"task candidates rejected for missing their deadline")
	mRouteExt = obs.Default.Counter("imtao_assign_route_extensions_total",
		"accepted task placements (route extensions)")
)

func recordStats(s Stats) {
	mCalls.Inc()
	recordWork(s)
}

// recordWork adds s to the work counters without counting a call — the
// trial heads' share.
func recordWork(s Stats) {
	mTasksScanned.Add(int64(s.TasksScanned))
	mDeadlineRej.Add(int64(s.DeadlineRejections))
	mRouteExt.Add(int64(s.RouteExtensions))
}

// AssignedCount returns the number of tasks assigned in the result.
func (r *Result) AssignedCount() int {
	n := 0
	for _, rt := range r.Routes {
		n += len(rt.Tasks)
	}
	return n
}

// WorkerOrder selects the order in which Sequential serves workers.
// The paper sorts by distance from the center descending ("marginal workers
// first", Algorithm 2 line 4); the alternatives exist for the ablation study.
type WorkerOrder int

const (
	// MarginalFirst is the paper's order: farthest worker from the center
	// first, so workers with the least remaining delivery time get the
	// first pick of tasks.
	MarginalFirst WorkerOrder = iota
	// NearestFirst is the reverse of the paper's order.
	NearestFirst
	// ByID serves workers in ID order (arrival order).
	ByID
	// RandomOrder shuffles workers with the Options RNG.
	RandomOrder
)

// Options tunes Sequential. The zero value reproduces the paper exactly.
type Options struct {
	Order WorkerOrder
	// Rng is required only for RandomOrder.
	Rng *rand.Rand
	// LinearScan disables the cell index and finds nearest tasks by linear
	// scan — the index-choice ablation.
	LinearScan bool
	// Scan, when non-nil, observes per-worker scan decisions — currently the
	// sequence-ending deadline rejection of Algorithm 2 line 11. The
	// provenance ledger hangs its phase-1 scan events off this hook; trial
	// replays in phase 2 never set it.
	Scan ScanObserver
}

// ScanObserver receives the sequential assigner's per-worker scan decisions.
type ScanObserver interface {
	// RejectDeadline fires when worker w's greedy sequence ends because the
	// nearest remaining task t would be reached at arrive > expiry.
	RejectDeadline(w model.WorkerID, t model.TaskID, arrive, expiry float64)
}

// Sequential runs paper Algorithm 2 for center c over the given worker and
// task sets. Tasks are assigned in nearest-first order per worker; a worker's
// sequence ends when capacity is reached or the nearest remaining task can no
// longer meet its deadline. The returned routes pick up at center c.
func Sequential(in *model.Instance, c *model.Center, workers []model.WorkerID, tasks []model.TaskID) Result {
	return SequentialOpt(in, c, workers, tasks, Options{})
}

// SequentialOpt is Sequential with explicit options. Only the worker order
// changes the answer: the linear scan and the scan observer do not.
func SequentialOpt(in *model.Instance, c *model.Center, workers []model.WorkerID, tasks []model.TaskID, opt Options) Result {
	res := Result{Sequential: opt.Order == MarginalFirst}
	if len(workers) == 0 {
		res.LeftTasks = append([]model.TaskID(nil), tasks...)
		recordStats(res.Stats)
		return res
	}
	in.EnsureHot()
	wh := in.HotWorkers()

	// Algorithm 2 line 4: order workers. Ties break by ID for determinism.
	order := make([]orderEnt, len(workers))
	for i, wid := range workers {
		order[i].wid = wid
	}
	switch opt.Order {
	case MarginalFirst, NearestFirst:
		order = serveOrder(order, wh, c.Loc, workers, opt.Order == NearestFirst)
	case ByID:
		slices.SortFunc(order, func(a, b orderEnt) int { return cmp.Compare(a.wid, b.wid) })
	case RandomOrder:
		rng := opt.Rng
		if rng == nil {
			rng = rand.New(rand.NewSource(0))
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}

	// Unassigned-task pool with nearest queries.
	var pool interface {
		taskPool
		appendLeft([]model.TaskID) []model.TaskID
	}
	if opt.LinearScan {
		pool = newLinearPool(in, tasks)
	} else {
		cp := poolFree.Get().(*cellPool)
		defer cp.release()
		cp.reset(in, c, tasks)
		pool = cp
	}

	cref := in.CenterRef(c.ID)
	for _, e := range order {
		route := serveWorker(in, c, cref, e.wid, pool, &res.Stats, nil, opt.Scan)
		if len(route.Tasks) == 0 {
			// Line 19: unused worker — available for workforce transfer.
			res.LeftWorkers = append(res.LeftWorkers, e.wid)
		} else {
			res.Routes = append(res.Routes, route)
		}
	}
	res.LeftTasks = pool.appendLeft(make([]model.TaskID, 0, pool.len()))
	slices.Sort(res.LeftTasks)
	slices.Sort(res.LeftWorkers)
	recordStats(res.Stats)
	return res
}

// orderEnt pairs a worker with its squared distance from the center, the
// key of the serve order.
type orderEnt struct {
	d2  float64
	wid model.WorkerID
}

// serveOrder fills ents with workers keyed by squared distance from c and
// sorts them marginal-first — distance descending, ties to the smaller ID —
// or, with nearestFirst, distance ascending with the same tie rule. Both
// orders are strict and total over distinct IDs, so any sorting algorithm
// lands on the same permutation. Sequential and TrialBase both order their
// workers here.
func serveOrder(ents []orderEnt, wh []model.WorkerHot, c geo.Point, workers []model.WorkerID, nearestFirst bool) []orderEnt {
	ents = ents[:0]
	for _, wid := range workers {
		ents = append(ents, orderEnt{d2: wh[wid].Loc.Dist2(c), wid: wid})
	}
	slices.SortFunc(ents, func(x, y orderEnt) int {
		if x.d2 != y.d2 {
			if (x.d2 > y.d2) != nearestFirst {
				return -1
			}
			return 1
		}
		return cmp.Compare(x.wid, y.wid)
	})
	return ents
}

// serveWorker runs the per-worker inner loop of Algorithm 2 (lines 7–18):
// greedily extend wid's delivery sequence with nearest feasible tasks,
// consuming them from the shared pool. The pool is the ONLY cross-worker
// state of the sequential assigner — a fact the resumable trial engine
// (trial.go) exploits to replay just a suffix of the serve order.
//
// A non-nil arena supplies the route's task slice from recycled scratch
// (the trial engine's per-iteration buffers); nil falls back to a fresh
// allocation for the one-shot phase-1 path. min(MaxT, pool.len()) bounds the
// final route length exactly, so the grab never overflows its reservation.
func serveWorker(in *model.Instance, c *model.Center, cref model.NodeRef, wid model.WorkerID, pool taskPool, stats *Stats, arena *slab.Arena[model.TaskID], scan ScanObserver) model.Route {
	w := &in.HotWorkers()[wid]
	maxT := int(w.MaxT)
	route := model.Route{Worker: wid, Center: c.ID}
	if hint := min(maxT, pool.len()); hint > 0 {
		if arena != nil {
			route.Tasks = arena.Grab(hint)
		} else {
			route.Tasks = make([]model.TaskID, 0, hint)
		}
	}
	// Algorithm 2 lines 7–8: travel to the center first (Eq. 1).
	t := in.TravelTimeRef(w.Loc, w.Ref, c.Loc, cref)
	cur, curRef, from := c.Loc, cref, model.TaskID(-1)
	th := in.HotTasks()
	for len(route.Tasks) < maxT && pool.len() > 0 {
		// Line 10: nearest unassigned task to the worker's position.
		sid, tt, ok := pool.nearest(cur, curRef, from)
		if !ok {
			break
		}
		stats.TasksScanned++
		task := &th[sid]
		arrive := t + tt
		// Line 11: deadline check. Under the paper's uniform expiry a
		// failing nearest task means every remaining task fails too, so
		// the sequence ends here.
		if arrive > task.Expiry+timeEps {
			stats.DeadlineRejections++
			if scan != nil {
				scan.RejectDeadline(route.Worker, sid, arrive, task.Expiry)
			}
			break
		}
		pool.take()
		route.Tasks = append(route.Tasks, sid)
		stats.RouteExtensions++
		t = arrive
		cur, curRef, from = task.Loc, task.Ref, sid
	}
	return route
}

const timeEps = 1e-9

// taskPool abstracts the unassigned-task set with nearest queries and
// removal, so the index choice can be ablated and the trial engine can
// answer queries from its order table (orders.go).
type taskPool interface {
	// nearest returns the pooled task nearest to q, ties to the smaller ID,
	// and the travel time from q to it. q is the location of task from, or
	// of the center when from < 0; qRef is q's memoized snap.
	nearest(q geo.Point, qRef model.NodeRef, from model.TaskID) (model.TaskID, float64, bool)
	// take removes the task the last nearest call returned.
	take()
	len() int
}

// linearPool answers every query by a scan of the live tasks — the
// index-choice ablation's reference.
type linearPool struct {
	in    *model.Instance
	items []index.Item
	last  int // the index in items of the last answer
}

func newLinearPool(in *model.Instance, tasks []model.TaskID) *linearPool {
	p := &linearPool{in: in, items: make([]index.Item, len(tasks))}
	th := in.HotTasks()
	for i, id := range tasks {
		p.items[i] = index.Item{ID: int(id), Point: th[id].Loc}
	}
	return p
}

func (p *linearPool) nearest(q geo.Point, qRef model.NodeRef, _ model.TaskID) (model.TaskID, float64, bool) {
	p.last = -1
	bestD := math.Inf(1)
	for i, it := range p.items {
		d := q.Dist2(it.Point)
		if d < bestD || (d == bestD && p.last >= 0 && it.ID < p.items[p.last].ID) {
			p.last, bestD = i, d
		}
	}
	if p.last < 0 {
		return -1, 0, false
	}
	sid := model.TaskID(p.items[p.last].ID)
	t := &p.in.HotTasks()[sid]
	return sid, p.in.TravelTimeRef(q, qRef, t.Loc, t.Ref), true
}

// take swap-deletes the last answer.
func (p *linearPool) take() {
	last := len(p.items) - 1
	p.items[p.last] = p.items[last]
	p.items = p.items[:last]
}

func (p *linearPool) len() int { return len(p.items) }

func (p *linearPool) appendLeft(out []model.TaskID) []model.TaskID {
	for _, it := range p.items {
		out = append(out, model.TaskID(it.ID))
	}
	return out
}
