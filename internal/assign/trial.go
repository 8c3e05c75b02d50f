package assign

import (
	"math"
	"slices"
	"sort"

	"imtao/internal/geo"
	"imtao/internal/model"
	"imtao/internal/obs"
	"imtao/internal/slab"
)

// Differential-replay work profile: routes copied verbatim from the baseline
// versus routes actually re-served (diff check failed, or the trial pool
// extended a short route).
var (
	mRoutesCopied = obs.Default.Counter("imtao_trial_routes_copied_total",
		"baseline routes copied verbatim by differential trial replay")
	mRoutesReplayed = obs.Default.Counter("imtao_trial_routes_replayed_total",
		"suffix routes re-served during trial replay (preservation check failed or route extended)")
	mEmptyCand = obs.Default.Counter("imtao_trial_empty_candidate_total",
		"trials whose candidate route came back empty (result is the baseline verbatim)")
)

// This file implements the resumable phase-2 trial engine (DESIGN.md §11).
//
// A best-response trial asks: "what would Sequential produce for center c if
// candidate worker w joined the current worker set?" The sequential assigner
// has exactly one piece of cross-worker state — the unassigned-task pool —
// so inserting one candidate at position k of the marginal-first serve order
// leaves positions 0..k-1 bit-identical to the baseline run. A trial
// therefore only needs to (a) restore the pool to its state after position
// k-1, (b) serve the candidate, and (c) replay the baseline suffix. The pool
// is an orderPool over the per-solve TaskOrders table: restoring it for the
// next trial is one epoch bump, and its nearest-task queries walk
// precomputed orders instead of searching an index.
//
// Memory discipline (DESIGN.md §13): TrialBase and TrialRunner are reusable.
// The game resets one base per sweep (Reset) and rebinds its one long-lived
// runner to it (Rebind); every slice a trial emits comes from the runner's
// slab arenas, recycled on Rebind. In the steady state a whole game
// iteration performs zero heap allocations.
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
	// th/wh are the instance's SoA hot slab, cached so the replay loops walk
	// contiguous arrays instead of the wider entity structs.
	th []model.TaskHot
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
	// stepT holds serveWorker's time accumulators for every baseline route,
	// flattened into one slab: route ri's accumulators are
	// stepT[stepOff[ri]:stepOff[ri+1]], where entry i is the time after
	// serving the first i tasks (entry 0 is the worker→center arrival),
	// bit-identical to the baseline run's — same query sequence, same
	// addition order. It is the resume state for the differential replay:
	// divergence at step d restarts Algorithm 2's loop from the step-d
	// accumulator, and a preserved short route extends from the final entry.
	stepT   []float64
	stepOff []int32
	// baseLeft are the baseline unused workers (ID-sorted) and leftTasks the
	// baseline leftover tasks (ID-sorted) — the pool end state E shared by
	// every runner.
	baseLeft  []model.WorkerID
	leftTasks []model.TaskID
	// co is the center's part of the solve's nearest-task table. stamp is
	// the runners' starting liveness over co's ranks — 0 for the start
	// state S_0 (leftovers plus every route's tasks), MaxUint32 for the
	// center's other tasks — and poolN counts S_0. servedAt is each rank's
	// baseline serve position: the position j whose route took it,
	// MaxInt32 for a leftover, -1 outside S_0. The baseline pool at the
	// boundary before position j is exactly the ranks with servedAt ≥ j.
	co       *centerOrders
	stamp    []uint32
	servedAt []int32
	poolN    int
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
	b.th = in.HotTasks()
	b.wh = in.HotWorkers()
	b.routes = routes
	b.leftTasks = leftTasks

	b.order = serveOrder(b.order, b.wh, c.Loc, workers, false)
	b.routeAt = b.routeAt[:0]
	b.cumRoutes = append(b.cumRoutes[:0], 0)
	b.cumServed = append(b.cumServed[:0], 0)
	b.cumCap = append(b.cumCap[:0], 0)
	b.baseLeft = b.baseLeft[:0]
	r, served, capSum := 0, 0, 0
	for _, e := range b.order {
		if r < len(routes) && routes[r].Worker == e.wid {
			b.routeAt = append(b.routeAt, int32(r))
			served += len(routes[r].Tasks)
			r++
		} else {
			b.routeAt = append(b.routeAt, -1)
			b.baseLeft = append(b.baseLeft, e.wid)
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
	slices.Sort(b.baseLeft)
	if !b.markPool(o, c) {
		return false
	}
	b.stepT = b.stepT[:0]
	b.stepOff = append(b.stepOff[:0], 0)
	var hits, misses int64
	for ri := range routes {
		rt := &routes[ri]
		w := &b.wh[rt.Worker]
		t := in.TravelTimeRef(w.Loc, w.Ref, c.Loc, b.cref)
		b.stepT = append(b.stepT, t)
		from := model.TaskID(-1)
		for _, sid := range rt.Tasks {
			// Consecutive route tasks are almost always in each other's
			// lists, so this snapshot and the trials share one metric
			// query per leg.
			tt, hit := o.leg(b.co, from, sid)
			if hit {
				hits++
			} else {
				misses++
			}
			t += tt
			b.stepT = append(b.stepT, t)
			from = sid
		}
		b.stepOff = append(b.stepOff, int32(len(b.stepT)))
	}
	mTravelMemoHits.Add(hits)
	mTravelMemoMisses.Add(misses)
	return true
}

// markPool binds the base to c's part of the table and stamps the start
// state S_0 with every rank's baseline serve position, reporting false when
// a pooled task is not one of c's own or is listed twice.
func (b *TrialBase) markPool(o *TaskOrders, c *model.Center) bool {
	if int(c.ID) < 0 || int(c.ID) >= len(o.centers) {
		return false
	}
	co := o.center(c.ID)
	if co.loc != c.Loc {
		return false
	}
	b.co = co
	b.stamp, b.servedAt = b.stamp[:0], b.servedAt[:0]
	for range co.order {
		b.stamp = append(b.stamp, math.MaxUint32)
		b.servedAt = append(b.servedAt, -1)
	}
	b.poolN = 0
	mark := func(sid model.TaskID, at int32) bool {
		if sid < 0 || int(sid) >= len(co.rank) || b.in.Tasks[sid].Center != c.ID {
			return false
		}
		r := co.rank[sid]
		if int(r) >= len(co.order) || model.TaskID(co.order[r]) != sid || b.stamp[r] == 0 {
			return false
		}
		b.stamp[r], b.servedAt[r] = 0, at
		b.poolN++
		return true
	}
	for _, sid := range b.leftTasks {
		if !mark(sid, math.MaxInt32) {
			return false
		}
	}
	for j, ri := range b.routeAt {
		if ri < 0 {
			continue
		}
		for _, sid := range b.routes[ri].Tasks {
			if !mark(sid, int32(j)) {
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

// stepsOf returns route ri's resume accumulators (see stepT).
func (b *TrialBase) stepsOf(ri int32) []float64 {
	return b.stepT[b.stepOff[ri]:b.stepOff[ri+1]]
}

// FootprintBytes estimates the snapshot's memory footprint (order, route
// and bound tables, leftover-task pool and pool stamps), feeding the
// snapshot-bytes gauge.
func (b *TrialBase) FootprintBytes() int64 {
	n := int64(len(b.order))*(16+4+4+8+8) + int64(len(b.leftTasks))*8 + int64(len(b.stamp))*(4+4)
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
	// lastCopied/lastReplayed profile the most recent Trial call for the
	// tracing layer: suffix routes taken verbatim vs re-served.
	lastCopied, lastReplayed int
	// nStolen and nFreed size the differential replay's symmetric
	// difference between the trial pool and the baseline pool at the
	// current suffix boundary j: stolen = consumed in the trial, still
	// available in the baseline; freed = available in the trial, consumed
	// in the baseline. Membership needs no sets: a rank is stolen iff it is
	// dead in the trial pool and its servedAt is ≥ j, and freed iff it is
	// live and its servedAt is < j.
	nStolen, nFreed int
	// Result-slice arenas, recycled per Rebind (one game iteration). head
	// holds the route of the latest Head call only.
	tids slab.Arena[model.TaskID]
	wids slab.Arena[model.WorkerID]
	rts  slab.Arena[model.Route]
	head slab.Arena[model.TaskID]
}

// settle folds serve position j into the difference counts once the trial
// pool has served it. base is the tail of the baseline route from the first
// step the trial re-served (every task in it has servedAt = j), trial the
// trial route's tail from the same step.
func (r *TrialRunner) settle(j int, base, trial []model.TaskID) {
	b, p := r.b, &r.pool
	rank := b.co.rank
	common := 0
	for _, x := range trial {
		switch sb := b.servedAt[rank[x]]; {
		case sb < int32(j):
			r.nFreed-- // the trial takes a freed task
		case sb > int32(j):
			r.nStolen++ // the trial takes a task the baseline still holds
		default:
			common++ // both take it at j
		}
	}
	// A base task the trial left live is freed from j+1 on. One that is
	// dead but not common was stolen before j and stops counting now that
	// the baseline has served it too.
	live := 0
	for _, x := range base {
		if p.live(rank[x]) {
			live++
		}
	}
	r.nFreed += live
	r.nStolen -= len(base) - live - common
}

// divergeStep returns the first step at which the baseline route served at
// position j stops replaying bit-identically against the current trial
// pool, or -1 when the whole route is preserved. Only two things can
// change a greedy nearest-first query: the chosen task is gone (stolen),
// or a freed task wins the nearest-task comparison — smaller squared
// distance, ties to the smaller ID. Removing never-chosen tasks cannot
// promote a different winner, and an identical prefix fixes the arrival
// times, so deadline checks repeat verbatim up to the divergence point.
//
// A route task is stolen iff it is dead in the trial pool. The freed test
// looks only at tasks ahead of the pick in the query's order: a live one
// there that the baseline still held would have been picked instead, so it
// is freed unless it is one of the route's own earlier tasks (servedAt =
// j), which the trial pool has not consumed yet. From the center that is
// any live rank before the pick's, so the trial's center cursor decides;
// from a task it is the neighbour list's prefix before the pick, or, when
// the pick lies beyond the list, a scan of the live pool.
func (r *TrialRunner) divergeStep(j int, rt *model.Route) int {
	b, p, co := r.b, &r.pool, r.b.co
	rank := co.rank
	for i, sid := range rt.Tasks {
		sr := rank[sid]
		if !p.live(sr) {
			return i
		}
		if r.nFreed == 0 {
			continue
		}
		if i == 0 {
			if p.first() < sr {
				return 0
			}
			continue
		}
		fr := int(rank[rt.Tasks[i-1]])
		listed := false
		for _, x := range co.nbr[fr*co.width : (fr+1)*co.width] {
			if x == sr {
				listed = true
				break
			}
			if p.live(x) && b.servedAt[x] < int32(j) {
				return i
			}
		}
		if !listed && r.freedAhead(j, b.th[rt.Tasks[i-1]].Loc, sid) {
			return i
		}
	}
	return -1
}

// freedAhead reports whether a freed task precedes sid in the (squared
// distance, ID) order from q, scanning the live ranks until it has seen
// every freed task.
func (r *TrialRunner) freedAhead(j int, q geo.Point, sid model.TaskID) bool {
	b, p := r.b, &r.pool
	ds := q.Dist2(b.th[sid].Loc)
	seen := 0
	for x := p.cursor; int(x) < len(b.co.order) && seen < r.nFreed; x++ {
		if !p.live(x) || b.servedAt[x] >= int32(j) {
			continue
		}
		seen++
		f := model.TaskID(b.co.order[x])
		if d := q.Dist2(b.th[f].Loc); d < ds || (d == ds && f < sid) {
			return true
		}
	}
	return false
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

// LastReplay profiles the most recent Trial call: how many suffix routes
// were copied verbatim (preservation check held, zero pool queries) vs
// re-served through the differential replay. Deterministic for a given
// trial, so span args built from it stay comparable across parallelism.
func (r *TrialRunner) LastReplay() (copied, replayed int) {
	return r.lastCopied, r.lastReplayed
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
// The result's slices live in the runner's arenas: valid until the next
// Rebind, shared with no other trial.
func (r *TrialRunner) Trial(cand model.WorkerID) Result {
	b := r.b
	res := Result{Sequential: true}
	k, candRoute := r.serveCandidate(cand, &r.tids, &res.Stats)
	pool := &r.pool
	if len(candRoute.Tasks) == 0 {
		// The candidate takes nothing, so the suffix replays identically:
		// the trial IS the baseline plus one more unused worker.
		mEmptyCand.Add(1)
		r.lastCopied, r.lastReplayed = len(b.routes), 0
		pool.flush()
		res.Routes = b.routes
		res.LeftTasks = b.leftTasks
		res.LeftWorkers = insertSortedWorker(&r.wids, b.baseLeft, cand)
		recordStats(res.Stats)
		return res
	}

	res.Routes = r.rts.Grab(len(b.order) + 1)
	res.Routes = append(res.Routes, b.routes[:b.cumRoutes[k]]...)
	res.Routes = append(res.Routes, candRoute)
	res.LeftWorkers = r.wids.Grab(len(b.order) + 1)
	for j := 0; j < k; j++ {
		if b.routeAt[j] < 0 {
			res.LeftWorkers = append(res.LeftWorkers, b.order[j].wid)
		}
	}

	// Differential suffix replay. The candidate consumed at most MaxT tasks;
	// every suffix worker whose baseline route provably survives that
	// perturbation (divergeStep) is copied without a single pool query, and
	// the pool difference is counted through the workers that do re-serve.
	// Once both counts reach zero, the perturbation is absorbed: the rest
	// of the suffix — and the leftover-task set — is the baseline verbatim.
	// The candidate's tasks all sat in the baseline pool at k: they start
	// out stolen.
	r.nStolen, r.nFreed = len(candRoute.Tasks), 0
	copied, replayed := 0, 0
	for j := k; j < len(b.order); j++ {
		if r.nStolen == 0 && r.nFreed == 0 {
			// Trial pool == baseline pool at this boundary: every remaining
			// query repeats verbatim, including route endings.
			for ; j < len(b.order); j++ {
				if ri := b.routeAt[j]; ri >= 0 {
					res.Routes = append(res.Routes, b.routes[ri])
					copied++
				} else {
					res.LeftWorkers = append(res.LeftWorkers, b.order[j].wid)
				}
			}
			break
		}
		wid := b.order[j].wid
		ri := b.routeAt[j]
		if ri < 0 {
			// Baseline-unused worker: its single ending query must run
			// against the real trial pool (a stolen blocker or a freed task
			// can hand it a route).
			rt := serveWorker(b.in, b.c, b.cref, wid, pool, &res.Stats, &r.tids, nil)
			if len(rt.Tasks) == 0 {
				res.LeftWorkers = append(res.LeftWorkers, wid)
			} else {
				res.Routes = append(res.Routes, rt)
				r.settle(j, nil, rt.Tasks)
			}
			continue
		}
		rt := &b.routes[ri]
		wcap := int(b.wh[wid].MaxT)
		if d := r.divergeStep(j, rt); d >= 0 {
			// The prefix rt.Tasks[:d] replays verbatim (no stolen task and no
			// freed winner before step d): consume it from the trial pool and
			// resume Algorithm 2's loop from the stored step-d state instead
			// of re-serving the whole route.
			for _, tid := range rt.Tasks[:d] {
				pool.remove(tid)
			}
			cur, curRef, from := b.c.Loc, b.cref, model.TaskID(-1)
			if d > 0 {
				from = rt.Tasks[d-1]
				cur, curRef = b.th[from].Loc, b.th[from].Ref
			}
			// min(wcap, d + pool.len()) bounds the resumed route's final
			// length, so the arena reservation never overflows.
			rt2 := model.Route{Worker: wid, Center: b.c.ID,
				Tasks: r.tids.Grab(min(wcap, d+pool.len()))}
			rt2.Tasks = append(rt2.Tasks, rt.Tasks[:d]...)
			extendServe(b.in, &rt2, b.stepsOf(ri)[d], cur, curRef, from, wcap, pool, &res.Stats, nil)
			if len(rt2.Tasks) == 0 {
				res.LeftWorkers = append(res.LeftWorkers, wid)
			} else {
				res.Routes = append(res.Routes, rt2)
			}
			r.settle(j, rt.Tasks[d:], rt2.Tasks[d:])
			replayed++
			continue
		}
		// The route replays verbatim — consume its tasks from the trial pool.
		for _, tid := range rt.Tasks {
			pool.remove(tid)
		}
		if len(rt.Tasks) < wcap {
			// The baseline sequence ended early (deadline or empty pool); the
			// trial pool may extend it. Resume Algorithm 2's loop from the
			// route's end state instead of replaying it.
			last := rt.Tasks[len(rt.Tasks)-1]
			trialRt := model.Route{Worker: wid, Center: b.c.ID,
				Tasks: r.tids.Grab(min(wcap, len(rt.Tasks)+pool.len()))}
			trialRt.Tasks = append(trialRt.Tasks, rt.Tasks...)
			extendServe(b.in, &trialRt, b.stepsOf(ri)[len(rt.Tasks)], b.th[last].Loc,
				b.th[last].Ref, last, wcap, pool, &res.Stats, nil)
			if len(trialRt.Tasks) > len(rt.Tasks) {
				res.Routes = append(res.Routes, trialRt)
				r.settle(j, nil, trialRt.Tasks[len(rt.Tasks):])
				replayed++
				continue
			}
		}
		res.Routes = append(res.Routes, *rt)
		copied++
	}
	mRoutesCopied.Add(int64(copied))
	mRoutesReplayed.Add(int64(replayed))
	r.lastCopied, r.lastReplayed = copied, replayed

	if r.nStolen == 0 && r.nFreed == 0 {
		res.LeftTasks = b.leftTasks
	} else {
		// The trial's leftover tasks are its live pool.
		lt := pool.appendLeft(r.tids.Grab(pool.len()))
		slices.Sort(lt)
		res.LeftTasks = lt
	}
	pool.flush()
	slices.Sort(res.LeftWorkers)
	recordStats(res.Stats)
	return res
}

// insertSortedWorker returns a copy of sorted (ascending IDs) with w
// inserted in order, carved from the given arena.
func insertSortedWorker(a *slab.Arena[model.WorkerID], sorted []model.WorkerID, w model.WorkerID) []model.WorkerID {
	i := sort.Search(len(sorted), func(j int) bool { return sorted[j] >= w })
	out := a.Grab(len(sorted) + 1)
	out = append(out, sorted[:i]...)
	out = append(out, w)
	return append(out, sorted[i:]...)
}
