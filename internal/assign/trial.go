package assign

import (
	"math"
	"slices"
	"sort"

	"imtao/internal/model"
	"imtao/internal/slab"
)

// This file implements the resumable phase-2 trial engine (DESIGN.md §11).
//
// A best-response trial asks: "what would Sequential produce for center c if
// candidate worker w joined the current worker set?" The sequential assigner
// has exactly one piece of cross-worker state — the unassigned-task pool —
// so inserting one candidate at position k of the marginal-first serve order
// leaves positions 0..k-1 bit-identical to the baseline run. A trial
// therefore only needs to (a) restore the pool to its state after position
// k-1, (b) serve the candidate, and (c) serve the suffix workers. The pool
// is an orderPool over the per-solve TaskOrders table: restoring it for the
// next trial is one epoch bump, and its nearest-task queries walk
// precomputed orders instead of searching an index.
//
// Memory discipline (DESIGN.md §13): TrialBase and TrialRunner are reusable.
// The game resets one base per sweep (Reset) and rebinds its one long-lived
// runner to it (Rebind); every slice a trial emits aliases the base or comes
// from the runner's slab arenas, recycled on Rebind. In the steady state a
// whole game iteration performs zero heap allocations.
//
// PrunePad is the conservative admission-slack margin: a worker is pruned
// only when its center travel time exceeds the slack by more than the pad,
// so floating-point noise can only over-admit (costing a wasted trial),
// never falsely prune (which would break bit-identity).
const PrunePad = 1e-9

// AdmissionSlack returns max over tasks of (expiry + timeEps − tt(c, s)):
// the largest center-arrival time at which a worker could still deliver at
// least one of the given tasks as its FIRST task. A worker w with
// tt(w→c) > slack + PrunePad fails the Algorithm 2 deadline check on every
// first task, produces an empty route, leaves the pool untouched, and so
// yields a trial identical to the baseline — it can be pruned without
// evaluation. Returns -Inf when tasks is empty (nobody is admissible).
func AdmissionSlack(in *model.Instance, c *model.Center, tasks []model.TaskID) float64 {
	in.EnsureHot()
	th := in.HotTasks()
	cref := in.CenterRef(c.ID)
	slack := math.Inf(-1)
	for _, sid := range tasks {
		task := &th[sid]
		s := task.Expiry + timeEps - in.TravelTimeRef(c.Loc, cref, task.Loc, task.Ref)
		if s > slack {
			slack = s
		}
	}
	return slack
}

// WorkerAdmissible reports whether wid could feasibly deliver a first task
// for center c given the slack from AdmissionSlack.
func WorkerAdmissible(in *model.Instance, c *model.Center, wid model.WorkerID, slack float64) bool {
	in.EnsureHot()
	w := &in.HotWorkers()[wid]
	tt := in.TravelTimeRef(w.Loc, w.Ref, c.Loc, in.CenterRef(c.ID))
	return tt <= slack+PrunePad
}

// TrialBase is an immutable snapshot of one center's current assignment —
// serve order, per-position routes, leftover tasks and unused workers — from
// which many single-candidate trials can be answered incrementally. Reset it
// once per sweep (the backing arrays are recycled); run trials through a
// TrialRunner rebound to it.
type TrialBase struct {
	in   *model.Instance
	c    *model.Center
	cref model.NodeRef
	// wh is the instance's SoA worker slab, cached so serve-order lookups
	// walk a contiguous array instead of the wider entity structs.
	wh []model.WorkerHot

	// order is the baseline worker set in Sequential's marginal-first serve
	// order, each worker with its squared center distance for the insertion
	// search.
	order []orderEnt
	// routes are the baseline routes, which Sequential emits in serve order;
	// routeAt[j] indexes routes for position j (-1 when order[j] went
	// unused) and cumRoutes[j] counts routes among positions < j.
	routes    []model.Route
	routeAt   []int32
	cumRoutes []int32
	// cumServed[j] counts the tasks the baseline serves at positions < j,
	// and cumCap[j] sums MaxT over those positions: Bound's two prefix sums.
	cumServed []int
	cumCap    []int
	// leftTasks are the baseline leftover tasks (ID-sorted).
	leftTasks []model.TaskID
	// co is the center's part of the solve's nearest-task table. stamp is
	// the runners' starting liveness over co's ranks — 0 for the start
	// state S_0 (leftovers plus every route's tasks), MaxUint32 for the
	// center's other tasks — and poolN counts S_0.
	co    *centerOrders
	stamp []uint32
	poolN int
}

// NewTrialBase snapshots the baseline assignment (workers, their routes, and
// the leftover tasks) for center c, answering nearest-task queries from the
// solve's table o. routes must be the Sequential result for exactly this
// worker set — the constructor validates that they line up with the serve
// order and returns ok=false otherwise, signalling the caller to fall back
// to full re-assignment. It also returns ok=false when the task pool is not
// a subset of c's own tasks, which the table does not cover. The snapshot
// aliases the caller's routes and leftTasks; both are treated as immutable.
func NewTrialBase(o *TaskOrders, c *model.Center, workers []model.WorkerID, routes []model.Route, leftTasks []model.TaskID) (*TrialBase, bool) {
	b := &TrialBase{}
	if !b.Reset(o, c, workers, routes, leftTasks) {
		return nil, false
	}
	return b, true
}

// Reset re-snapshots the base in place, recycling every backing array — the
// per-iteration entry point of the game engine. Same contract and validation
// as NewTrialBase; on ok=false the base must not be used until a successful
// Reset.
func (b *TrialBase) Reset(o *TaskOrders, c *model.Center, workers []model.WorkerID, routes []model.Route, leftTasks []model.TaskID) bool {
	in := o.in
	in.EnsureHot()
	b.in = in
	b.c = c
	b.cref = in.CenterRef(c.ID)
	b.wh = in.HotWorkers()
	b.routes = routes
	b.leftTasks = leftTasks

	b.order = serveOrder(b.order, b.wh, c.Loc, workers, false)
	b.routeAt = b.routeAt[:0]
	b.cumRoutes = append(b.cumRoutes[:0], 0)
	b.cumServed = append(b.cumServed[:0], 0)
	b.cumCap = append(b.cumCap[:0], 0)
	r, served, capSum := 0, 0, 0
	for _, e := range b.order {
		if r < len(routes) && routes[r].Worker == e.wid {
			b.routeAt = append(b.routeAt, int32(r))
			served += len(routes[r].Tasks)
			r++
		} else {
			b.routeAt = append(b.routeAt, -1)
		}
		capSum += int(b.wh[e.wid].MaxT)
		b.cumRoutes = append(b.cumRoutes, int32(r))
		b.cumServed = append(b.cumServed, served)
		b.cumCap = append(b.cumCap, capSum)
	}
	if r != len(routes) {
		// The routes do not correspond to this worker set's serve order —
		// they came from a different assigner or a stale state.
		return false
	}
	return b.markPool(o, c)
}

// markPool binds the base to c's part of the table and stamps the start
// state S_0, reporting false when a pooled task is not one of c's own or is
// listed twice.
func (b *TrialBase) markPool(o *TaskOrders, c *model.Center) bool {
	if int(c.ID) < 0 || int(c.ID) >= len(o.centers) {
		return false
	}
	co := o.center(c.ID)
	if co.loc != c.Loc {
		return false
	}
	b.co = co
	b.stamp = b.stamp[:0]
	for range co.order {
		b.stamp = append(b.stamp, math.MaxUint32)
	}
	b.poolN = 0
	mark := func(sid model.TaskID) bool {
		if sid < 0 || int(sid) >= len(co.rank) || b.in.Tasks[sid].Center != c.ID {
			return false
		}
		r := co.rank[sid]
		if int(r) >= len(co.order) || model.TaskID(co.order[r]) != sid || b.stamp[r] == 0 {
			return false
		}
		b.stamp[r] = 0
		b.poolN++
		return true
	}
	for _, sid := range b.leftTasks {
		if !mark(sid) {
			return false
		}
	}
	for _, rt := range b.routes {
		for _, sid := range rt.Tasks {
			if !mark(sid) {
				return false
			}
		}
	}
	return true
}

// Bound returns an upper bound on the assigned count of every trial with
// key k, exact for the empty key (DESIGN.md §11). Positions before k.Pos
// replay the baseline, the candidate serves k.Len tasks, Algorithm 2's
// capacity check holds every later worker to its MaxT, and no trial serves
// more than the start state's poolN tasks.
func (b *TrialBase) Bound(k TrialKey) int {
	n := len(b.order)
	if k.Len == 0 {
		return b.cumServed[n]
	}
	return min(b.poolN, b.cumServed[k.Pos]+int(k.Len)+b.cumCap[n]-b.cumCap[k.Pos])
}

// FootprintBytes estimates the snapshot's memory footprint (order, route
// and bound tables, leftover-task pool and pool stamps), feeding the
// snapshot-bytes gauge.
func (b *TrialBase) FootprintBytes() int64 {
	n := int64(len(b.order))*(16+4+4+8+8) + int64(len(b.leftTasks))*8 + int64(len(b.stamp))*4
	for _, rt := range b.routes {
		n += int64(len(rt.Tasks))*16 + 88
	}
	return n
}

// TrialRunner answers trials against one TrialBase. It owns the trial task
// pool plus the slab arenas every result slice is carved from; Rebind
// restamps the pool for a freshly Reset base and recycles the arenas, so a
// runner serves a whole game with a one-time high-water allocation. Results
// are valid until the runner's next Rebind — promote (deep-copy) anything
// that must live longer. Runners are NOT safe for concurrent use — create
// one per goroutine.
type TrialRunner struct {
	b    *TrialBase
	pool orderPool
	// Result-slice arenas, recycled per Rebind (one game iteration). head
	// holds the route of the latest Head call only.
	tids slab.Arena[model.TaskID]
	wids slab.Arena[model.WorkerID]
	rts  slab.Arena[model.Route]
	head slab.Arena[model.TaskID]
}

// NewRunner creates a runner whose task pool starts at the baseline start
// state S_0 — every task the assignment began with. Trials restore the pool
// to the candidate's serve position k by REMOVING the prefix consumption,
// which marginal-first makes near-free: borrowed candidates are far from
// the center, so k sits near the front and the prefix is almost empty
// (whereas restoring from the end state would re-insert nearly the whole
// suffix on every trial).
func (b *TrialBase) NewRunner() *TrialRunner {
	r := &TrialRunner{}
	r.Rebind(b)
	return r
}

// Rebind points the runner at a (typically freshly Reset) base: the trial
// pool is restamped to the base's start state and the result arenas are
// recycled, invalidating every Result this runner produced since the last
// Rebind. Call once per game iteration instead of creating a new runner.
func (r *TrialRunner) Rebind(b *TrialBase) {
	r.b = b
	r.tids.Reset()
	r.wids.Reset()
	r.rts.Reset()
	r.pool.bind(b)
}

// TrialKey is all a trial depends on besides its base: Pos, the
// candidate's serve-order position k, and Len, the length L of the route
// the candidate takes (DESIGN.md §11). Two candidates with equal keys get
// trials that differ only in the candidate's worker ID, so their assigned
// counts are equal. Every empty-route key is the zero key: such a trial is
// the baseline plus one more unused worker, wherever the candidate sits.
type TrialKey struct {
	Pos, Len int32
}

// Head returns cand's TrialKey by running only the head of Trial(cand):
// the prefix removal and the candidate's own route, at most MaxT queries.
// The route is discarded. Head shares the runner's pool with Trial, so the
// two must not interleave on one runner, but a Trial may follow any number
// of Heads.
func (r *TrialRunner) Head(cand model.WorkerID) TrialKey {
	r.head.Reset()
	var st Stats
	k, rt := r.serveCandidate(cand, &r.head, &st)
	r.pool.flush()
	recordWork(st)
	if len(rt.Tasks) == 0 {
		return TrialKey{}
	}
	return TrialKey{Pos: int32(k), Len: int32(len(rt.Tasks))}
}

// serveCandidate restores the trial pool to S_k, the full run's state at
// cand's serve position k, and serves cand from the center over it. This is
// the head of every trial. From S_k on, Algorithm 2's queries from the
// center and from each task just taken form one chain, whoever walks it;
// cand takes the chain's first L tasks, where L is fixed by cand's own
// capacity and deadlines. Everything after that depends on (k, L) alone.
func (r *TrialRunner) serveCandidate(cand model.WorkerID, arena *slab.Arena[model.TaskID], stats *Stats) (int, model.Route) {
	b := r.b
	cd2 := b.wh[cand].Loc.Dist2(b.c.Loc)
	// cand's serve-order position: first index holding a worker served
	// after cand. cand is not in order, so the ID tiebreak never ties.
	k := sort.Search(len(b.order), func(j int) bool {
		if e := b.order[j]; e.d2 != cd2 {
			return e.d2 < cd2
		}
		return b.order[j].wid > cand
	})

	pool := &r.pool
	pool.start()
	// Advance the pool from start state S_0 to the full run's state at
	// position k by consuming the prefix exactly as the baseline did: the
	// prefix 0..k-1 is bit-identical to the baseline, so S_k = S_0 minus
	// its routes' tasks. Marginal-first keeps k — and this loop — small.
	for j := 0; j < k; j++ {
		if ri := b.routeAt[j]; ri >= 0 {
			for _, tid := range b.routes[ri].Tasks {
				pool.remove(tid)
			}
		}
	}
	return k, serveWorker(b.in, b.c, b.cref, cand, pool, stats, arena, nil)
}

// Trial returns exactly what Sequential(in, c, baseWorkers∪{cand}, tasks)
// would return (up to nil-vs-empty slice spelling), by resuming from cand's
// position in the serve order. cand must not be in the baseline worker set.
// The result's slices alias the base's or live in the runner's arenas:
// valid until the next Rebind.
func (r *TrialRunner) Trial(cand model.WorkerID) Result {
	b := r.b
	res := Result{Sequential: true}
	k, candRoute := r.serveCandidate(cand, &r.tids, &res.Stats)
	pool := &r.pool
	res.Routes = r.rts.Grab(len(b.order) + 1)
	res.Routes = append(res.Routes, b.routes[:b.cumRoutes[k]]...)
	res.LeftWorkers = r.wids.Grab(len(b.order) + 1)
	for j := 0; j < k; j++ {
		if b.routeAt[j] < 0 {
			res.LeftWorkers = append(res.LeftWorkers, b.order[j].wid)
		}
	}
	if len(candRoute.Tasks) == 0 {
		res.LeftWorkers = append(res.LeftWorkers, cand)
	} else {
		res.Routes = append(res.Routes, candRoute)
	}
	// The suffix: Algorithm 2's own loop from position k on, over the trial
	// pool, and the leftover tasks are what it leaves live.
	for _, e := range b.order[k:] {
		rt := serveWorker(b.in, b.c, b.cref, e.wid, pool, &res.Stats, &r.tids, nil)
		if len(rt.Tasks) == 0 {
			res.LeftWorkers = append(res.LeftWorkers, e.wid)
		} else {
			res.Routes = append(res.Routes, rt)
		}
	}
	res.LeftTasks = pool.appendLeft(r.tids.Grab(pool.len()))
	slices.Sort(res.LeftTasks)
	pool.flush()
	slices.Sort(res.LeftWorkers)
	recordStats(res.Stats)
	return res
}
