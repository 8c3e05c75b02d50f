// Package collab implements phase 2 of IMTAO: the game-theoretic
// inter-center workforce transfer of paper §V (Algorithm 3).
//
// Centers are players; a recipient center's strategy is its borrowing worker
// set BWS(c); utilities are the UUP of Eq. 4. The best-response dynamics is
// specialised exactly as in the paper: in every iteration the recipient
// center with the lowest assignment ratio extends its BWS by the single
// available worker that maximises its post-reassignment ratio, keeps the
// move iff the ratio strictly improves, and drops out of the game otherwise.
// Where the game would end, one check re-admits every departed center that a
// later re-plan has given an improving deviation (DESIGN.md §5), so the loop
// ends only at a state where no center can unilaterally improve — a pure
// Nash equilibrium of the collaboration game.
//
// The reassignment step is pluggable, giving the paper's baselines:
//
//	BDC  — bi-directional collaboration: re-run the per-center assigner over
//	       all of the recipient's workers (own + borrowed + candidate).
//	DC   — decomposed collaboration: the candidate worker only receives
//	       leftover tasks; prior routes stay frozen.
//	RBDC — BDC with the recipient picked uniformly at random instead of
//	       by minimum ratio.
//
// Run is the optimized engine (DESIGN.md §11): admissibility pruning skips
// candidates that provably cannot take a task, the resumable trial engine of
// the assign package replays only the serve-order suffix each trial
// perturbs, and the game bookkeeping (ρ vector, assigned counts, candidate
// pool) is maintained incrementally. The engine is exposed as a stepwise
// Game (NewGame/Step/Finish) so harnesses can observe or meter individual
// iterations; Run is the canonical loop over it. In the warmed-up steady
// state one accepted Step performs zero heap allocations (DESIGN.md §13):
// every per-iteration slice comes from recycled scratch, slab arenas or the
// double-buffered per-center promotion buffers. RunReference (frozen.go) is
// the preserved pre-engine loop; both produce bit-identical solutions and
// traces (modulo the trial/prune/resume/replay counters and Duration).
package collab

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"time"

	"imtao/internal/assign"
	"imtao/internal/metrics"
	"imtao/internal/model"
	"imtao/internal/obs"
	"imtao/internal/provenance"
	"imtao/internal/slab"
)

// Game-progress counters, aggregated across every collaboration run of the
// process.
var (
	mIterations = obs.Default.Counter("imtao_collab_iterations_total",
		"game iterations executed (accepted + rejected)")
	mTransfers = obs.Default.Counter("imtao_collab_transfers_total",
		"accepted workforce dispatches")
	mRejections = obs.Default.Counter("imtao_collab_rejections_total",
		"iterations ending with a center leaving the game")
	mTrials = obs.Default.Counter("imtao_collab_trials_total",
		"trial re-assignments evaluated (pruned candidates excluded)")
	mPruned = obs.Default.Counter("imtao_collab_candidates_pruned_total",
		"pool candidates skipped by admissibility pruning (their trials "+
			"provably return the baseline assignment)")
	mResumed = obs.Default.Counter("imtao_collab_resume_trials_total",
		"trials served by the prefix-resume engine instead of a full "+
			"re-assignment")
	mSnapshotBytes = obs.Default.Gauge("imtao_collab_snapshot_bytes",
		"estimated footprint of the current recipient's trial-base snapshot "+
			"(serve order, baseline routes, leftover-task pool)")
	mIterSeconds = obs.Default.Quantile("imtao_collab_iter_seconds",
		"wall time of one game iteration (best-response trial sweep + "+
			"dispatch); exact-rank p50/p90/p99/p999 over every iteration of "+
			"the process")
	mGamePhi = obs.Default.Gauge("imtao_game_phi",
		"potential Φ after the most recent game iteration — falling toward "+
			"its fixed point while the game converges")
)

// RecipientPolicy selects the recipient center each iteration.
type RecipientPolicy int

const (
	// MinRatio picks the center with the lowest assignment ratio
	// (paper Algorithm 3 line 13) — the BDC/DC setting.
	MinRatio RecipientPolicy = iota
	// RandomRecipient picks uniformly at random — the RBDC baseline.
	RandomRecipient
	// MaxLeftover picks the center with the most unassigned tasks — an
	// ablation alternative (DESIGN.md §6) that chases volume rather than
	// fairness.
	MaxLeftover
)

// Scope selects how a recipient reassigns after borrowing a worker.
type Scope int

const (
	// FullReassign re-runs the assigner over the recipient's complete
	// worker set — the paper's bi-directional collaboration.
	FullReassign Scope = iota
	// LeftoverOnly gives the borrowed worker leftover tasks without touching
	// existing routes — the paper's decomposed collaboration (DC).
	LeftoverOnly
)

// Assigner is a per-center assignment routine: Sequential or Optimal from
// the assign package (or any custom policy with the same contract).
type Assigner func(in *model.Instance, c *model.Center, workers []model.WorkerID, tasks []model.TaskID) assign.Result

// Config configures a collaboration run.
type Config struct {
	Recipient RecipientPolicy
	Scope     Scope
	// Assigner re-plans a recipient in every trial; nil means
	// assign.Sequential. Pruning follows it (prunes), and only Sequential
	// trials resume from a serve-order prefix.
	Assigner Assigner
	// Rng drives RandomRecipient; ignored otherwise. Required when
	// Recipient == RandomRecipient.
	Rng *rand.Rand
	// Obs receives one "game_iter" event per iteration carrying the
	// potential Φ, the full ρ vector, trial/prune/resume counts and the
	// iteration latency. Nil (or obs.Nop) disables emission; the TraceStep
	// record is filled either way.
	Obs obs.Observer
	// Tracer records one game_iter span per iteration with one child trial
	// span per evaluated candidate (carrying its resume/full outcome), so a
	// Perfetto timeline shows where the game's wall-clock goes. Nil (the
	// default) records nothing at zero cost.
	Tracer *obs.Tracer
	// TraceParent is the span the iteration spans attach under — core.Run
	// passes its phase-2 span; zero parents them at the trace root.
	TraceParent obs.SpanID
	// Prov, when non-nil, records every iteration of this game into the
	// provenance ledger's game log: recipient, candidate trials with their
	// full/resumed provenance, prune counts and admission slack,
	// Δρ/ΔΦ, and the accepted route delta. Nil (the default) keeps the
	// disabled path at a single pointer check per iteration — the
	// zero-allocation steady state is unchanged (alloc_test.go).
	// RunSharded ignores it and records through ShardConfig.Ledger.
	Prov *provenance.GameLog
	// prunedHook, when non-nil, observes every pruned candidate together
	// with the recipient state needed to replay its full trial. Test hook
	// backing the pruning-soundness property test; it changes no decision.
	prunedHook func(recipient model.CenterID, w model.WorkerID,
		baseWS []model.WorkerID, leftTasks []model.TaskID, assigned int)
	// sweptHook, when non-nil, observes every finished sweep together with
	// the center state needed to re-evaluate all of its candidates. Test
	// hook backing the bounded-sweep exactness test; it changes no decision.
	sweptHook func(ci model.CenterID, sw sweepResult,
		baseWS []model.WorkerID, leftTasks []model.TaskID, assigned int)
	// members restricts the game to a subset of centers — the sharded
	// engine's phase-A games (shard.go). Only member centers are initialized,
	// selected as recipients or allowed to lend; TraceStep.Rhos/Assigned/
	// Unfairness/Phi switch to shard-local semantics (the member-ordered ρ
	// vector and the members' assigned total). Nil means every center plays
	// (the unsharded engine, global semantics).
	members []model.CenterID
	// orders is the solve's nearest-task table the trial bases share
	// (assign.TaskOrders). Nil makes NewGame create one; RunSharded passes
	// one table to every shard game and to the exchange game.
	orders *assign.TaskOrders
}

// sequentialPtr and optimalPtr identify the built-in Sequential and exact
// Optimal assigners by code pointer, surviving the Assigner func-type
// conversion.
var (
	sequentialPtr = reflect.ValueOf(assign.Sequential).Pointer()
	optimalPtr    = reflect.ValueOf(assign.Optimal).Pointer()
)

// isSequentialAssigner reports whether a is nil (defaults to Sequential) or
// assign.Sequential itself — the engine that admits prefix-resume trials.
func isSequentialAssigner(a Assigner) bool {
	return a == nil || reflect.ValueOf(a).Pointer() == sequentialPtr
}

// prunes reports whether admissibility pruning filters the trial
// candidates of a game played with assigner a: exactly for the built-in
// assign.Sequential (or a nil Assigner) and the exact assign.Optimal.
// Pruning never changes the solution or trace beyond the work counters
// (Trials, Pruned, Resumed, Replays).
//
// Its soundness (DESIGN.md §11) rests on two conditions. First, the
// assigner must give a pruned worker — one that cannot feasibly deliver any
// first task — an empty route, so a pruned candidate's trial equals a plain
// re-run over the unchanged worker set. Second, that plain re-run must not
// itself beat the recipient's CURRENT routes: the phase-1 state has to be a
// fixed point of (or dominate) the game's assigner over the same worker set,
// or the reference dynamics could accept a pruned candidate on the strength
// of the re-run alone. core.Run satisfies this by construction — one
// assigner drives both phases — as do a Sequential game over an Optimal
// phase 1 (Optimal dominates) and every LeftoverOnly run (a pruned DC trial
// serves zero leftover tasks regardless of provenance). Sequential meets
// the first condition by its admission slack, and exact Optimal because its
// enumeration grows from feasible singletons.
//
// Every other assigner runs unpruned, since the argument is
// assigner-specific. A budgeted Optimal fails it even though its budget
// counts steps: every extension it tries spends budget, so its answer
// depends on every worker's candidates. A lender that lends out a worker
// holding no route can then assign more than its current routes when
// re-run without it, which breaks the second condition.
func prunes(a Assigner) bool {
	return isSequentialAssigner(a) || reflect.ValueOf(a).Pointer() == optimalPtr
}

// TraceStep records one iteration of the collaboration game, feeding the
// convergence analysis of paper Fig. 11.
type TraceStep struct {
	Iteration  int
	Recipient  model.CenterID
	Worker     model.WorkerID // worker evaluated (undefined when none available)
	Source     model.CenterID // the worker's home center
	Accepted   bool
	RhoBefore  float64
	RhoAfter   float64
	Assigned   int     // platform-wide assigned tasks after the step
	Unfairness float64 // platform-wide U_ρ after the step
	// Phi is the game potential Φ after the step — the sum of per-center
	// assignment ratios (metrics.Phi), monotonically non-decreasing along
	// the dynamics.
	Phi float64
	// Rhos is the full per-center ratio vector after the step.
	Rhos []float64
	// Trials counts the trial re-assignments evaluated this iteration.
	// MemoHits is always 0: the engine keeps no cross-iteration trial
	// cache. The field stays for the readers of recorded traces.
	Trials   int
	MemoHits int
	// Pruned counts pool candidates skipped this iteration by admissibility
	// pruning — their trials provably return the baseline. Resumed counts
	// evaluated trials served by the prefix-resume engine instead of a full
	// re-assignment. Replays counts the trials the iteration ran beyond the
	// heads: one suffix replay per assign.TrialKey the bounded sweep
	// evaluated on the prefix-resume engine, one full assigner run per
	// candidate otherwise. All three are zero under RunReference;
	// together with Trials they are diagnostics, not part of the
	// cross-engine equivalence contract.
	Pruned  int
	Resumed int
	Replays int
	// Duration is the iteration's wall-clock time. It is the one TraceStep
	// field outside the determinism contract — everything else (minus the
	// counter diagnostics above) is bit-identical across parallelism levels
	// and engines.
	Duration time.Duration
}

// Result bundles the collaboration outcome.
type Result struct {
	Solution *model.Solution
	Trace    []TraceStep
	// Iterations is the number of game iterations executed (accepted or
	// rejected), matching η in Algorithm 3.
	Iterations int
}

// NoCollaboration assembles the phase-1 results into a Solution without any
// workforce transfer — the paper's w/o-C baseline.
func NoCollaboration(in *model.Instance, phase1 []assign.Result) *model.Solution {
	sol := model.NewSolution(in)
	for ci := range in.Centers {
		sol.PerCenter[ci].Routes = cloneRoutes(phase1[ci].Routes)
	}
	return sol
}

// promoBuf is one half of a center's double-buffered result promotion: a
// flat task slab backing every route of one accepted assignment plus its
// leftover tasks, and a route header array pointing into it. Promoting an
// accepted trial deep-copies it out of the trial runner's arenas (which
// recycle next iteration) without allocating once the buffers reach their
// high-water capacity.
type promoBuf struct {
	routes []model.Route
	tasks  []model.TaskID // all route tasks, then the leftover tasks
	left   []model.TaskID // the leftover view into tasks' tail
}

// promote deep-copies r into the buffer. The copy is laid out
// structure-of-arrays style: one contiguous task slab with capacity-clamped
// route views, so the next trial base walks one cache-friendly array.
func (pb *promoBuf) promote(r *assign.Result) {
	total := 0
	for i := range r.Routes {
		total += len(r.Routes[i].Tasks)
	}
	// The buffers regrow with geometric headroom: an accepted dispatch
	// typically adds one route and one task, so exact sizing would realloc
	// on every single accept instead of amortising to zero.
	need := total + len(r.LeftTasks)
	if cap(pb.tasks) < need {
		pb.tasks = make([]model.TaskID, need, growCap(cap(pb.tasks), need))
	} else {
		pb.tasks = pb.tasks[:need]
	}
	if cap(pb.routes) < len(r.Routes) {
		pb.routes = make([]model.Route, len(r.Routes), growCap(cap(pb.routes), len(r.Routes)))
	} else {
		pb.routes = pb.routes[:len(r.Routes)]
	}
	off := 0
	for i := range r.Routes {
		rt := &r.Routes[i]
		n := len(rt.Tasks)
		copy(pb.tasks[off:off+n], rt.Tasks)
		pb.routes[i] = model.Route{Worker: rt.Worker, Center: rt.Center,
			Tasks: pb.tasks[off : off+n : off+n]}
		off += n
	}
	copy(pb.tasks[off:], r.LeftTasks)
	pb.left = pb.tasks[off:len(pb.tasks):len(pb.tasks)]
}

// centerState is one center's mutable game state. The worker set is an
// ID-sorted slice maintained incrementally, and accepted assignments live
// in the double-buffered promotion slabs — one buffer holds the live state
// the current iteration's trials alias, the other receives the accepted
// result, then they flip.
type centerState struct {
	routes    []model.Route
	leftTasks []model.TaskID
	// workers is the center's worker set in ascending ID order: its own
	// workers not lent out plus the workers it borrowed, maintained
	// incrementally (the legacy loop rebuilt and sorted it per iteration).
	workers []model.WorkerID
	// assigned is countTasks(routes), maintained incrementally.
	assigned int
	// slack caches assign.AdmissionSlack for the pruning scope; valid
	// until slackOK is cleared (LeftoverOnly invalidates on accept —
	// its slack covers the mutable leftover set; FullReassign's covers
	// the static center.Tasks).
	slack   float64
	slackOK bool
	// sequential reports that routes and leftTasks are Sequential's own
	// answer for workers, so they are the trial base the prefix-resume
	// engine replays against (DESIGN.md §13). A Sequential phase-1 result
	// sets it, and so does every accept under the Sequential engine: the
	// accepted trial IS Sequential over the new worker set. Lending keeps
	// it, since the pool holds only workers with empty routes.
	sequential bool
	// promo double-buffers result promotion: promo[flip] backs the live
	// routes/leftTasks, promo[1-flip] receives the next accepted result
	// (whose trial slices alias promo[flip] — a single buffer would
	// overwrite its own source).
	promo [2]promoBuf
	flip  int
}

// Game is the stepwise optimized collaboration engine. NewGame captures the
// phase-1 state, each Step executes one iteration of Algorithm 3's
// best-response dynamics (returning false once the game is over), and Finish
// assembles the Result and releases pooled scratch. Run wraps the three for
// the common case; harnesses that meter individual iterations (the
// allocation benchmarks) drive Step directly.
//
// A Game is single-use and not safe for concurrent use. Step evaluates
// every trial on the calling goroutine and starts none.
type Game struct {
	in        *model.Instance
	cfg       Config
	seqEngine bool
	pruneOn   bool

	states        []centerState
	pool          *workerPool
	totalAssigned int
	rhoVec        []float64
	recipients    []model.CenterID
	// members mirrors cfg.members (nil for the global game); memberRhos is
	// the preallocated member-ordered ρ scratch the shard-local trace path
	// fills each step before snapshotting it into the rhos arena.
	members    []model.CenterID
	memberRhos []float64

	// base is the per-iteration trial-base snapshot, reset in place;
	// runner is the long-lived trial evaluator rebound to it. orders is the
	// table the base answers nearest-task queries from, nil unless the
	// Sequential engine plays.
	base   assign.TrialBase
	runner *assign.TrialRunner
	orders *assign.TaskOrders
	// The per-sweep evaluation scratch of evalTrials: each candidate's key
	// index, the keys with their evaluation order, each key's trial, each
	// candidate's count and bounded flag, and the trial key → key index
	// map.
	group   []int32
	keys    keyOrder
	results []assign.Result
	counts  []int
	bounded []bool
	groupOf map[assign.TrialKey]int32
	// rhos carves the per-step ρ-vector snapshots (TraceStep.Rhos) from one
	// growing slab instead of one allocation per iteration. Never reset:
	// the snapshots are part of the returned trace. rhoSort is the sort
	// buffer of the per-step U_ρ (metrics.UnfairnessScratch).
	rhos    slab.Arena[float64]
	rhoSort []float64

	maxIter   int
	iter      int
	res       Result
	transfers []model.Transfer
	done      bool
}

// Run executes the multi-center collaboration game (paper Algorithm 3) on
// top of the phase-1 per-center results and returns the final solution with
// its iteration trace. The instance is not mutated.
//
// This is the optimized engine: bit-identical to RunReference in solution,
// transfers and trace (Trials/Pruned/Resumed/Replays and Duration aside),
// but with admissibility pruning, prefix-resume trials, incremental
// bookkeeping and recycled per-iteration memory — see DESIGN.md §11 and §13
// for the architecture and the exactness arguments.
func Run(in *model.Instance, phase1 []assign.Result, cfg Config) Result {
	g := NewGame(in, phase1, cfg)
	for g.Step() {
	}
	return g.Finish()
}

// NewGame captures the phase-1 state and prepares the stepwise engine. The
// instance is treated as immutable for the game's lifetime.
func NewGame(in *model.Instance, phase1 []assign.Result, cfg Config) *Game {
	g := newGame(in, cfg)
	initCenter := func(ci model.CenterID) {
		st := &g.states[ci]
		pb := &st.promo[0]
		pb.promote(&phase1[ci])
		st.routes = pb.routes
		st.leftTasks = pb.left
		// A center whose phase-1 answer is not Sequential's own plays full
		// trials until its first accept.
		st.sequential = g.seqEngine && cfg.Scope == FullReassign && phase1[ci].Sequential
		own := in.Centers[ci].Workers
		st.workers = append(make([]model.WorkerID, 0, len(own)+8), own...)
		slices.Sort(st.workers)
		st.assigned = countTasks(st.routes)
		for _, w := range phase1[ci].LeftWorkers {
			g.pool.add(w, ci)
		}
		g.join(ci)
	}
	// Line 3–10: recipient set C' = centers with ρ < 1 (member centers only
	// for a shard-restricted game — non-members keep zero states and never
	// appear as recipients or lenders: only members' workers enter the
	// pool, and candidate home centers are always pool members' homes).
	if g.members == nil {
		for ci := range in.Centers {
			initCenter(model.CenterID(ci))
		}
		// The initial recipients' order-table parts are built concurrently
		// here instead of one by one in their first sweeps. A shard game
		// skips this: the shard games already build concurrently.
		if g.orders != nil && !g.Over() {
			g.orders.Build(g.recipients)
		}
	} else {
		for _, ci := range g.members {
			initCenter(ci)
		}
		slices.Sort(g.recipients)
	}
	return g
}

// newExchangeGame continues finished shard games as one global game — the
// sharded engine's phase B (shard.go). Each member center's state moves
// over unchanged (routes, worker set, admission slack, promotion buffers),
// the shard pools merge into one, and the transfer log is the shard logs
// in shard order. Every center with ρ < 1 starts as a recipient, so each
// re-probes its deviations against the global pool. The shard games are
// spent afterwards.
func newExchangeGame(in *model.Instance, cfg Config, shards []*Game) *Game {
	g := newGame(in, cfg)
	for _, sg := range shards {
		for _, ci := range sg.members {
			g.states[ci] = sg.states[ci]
			g.join(ci)
		}
		for _, w := range sg.pool.sorted {
			g.pool.add(w, sg.pool.homeOf(w))
		}
		g.transfers = append(g.transfers, sg.transfers...)
	}
	slices.Sort(g.recipients)
	return g
}

// newGame prepares the engine shell shared by NewGame and newExchangeGame:
// the resolved assigner, pruning mode, order table, member set, and empty
// per-center states, pool and ρ vector for the constructor to fill.
func newGame(in *model.Instance, cfg Config) *Game {
	g := &Game{in: in, cfg: cfg, members: cfg.members}
	if g.members != nil {
		g.memberRhos = make([]float64, len(g.members))
	}
	g.seqEngine = isSequentialAssigner(cfg.Assigner)
	g.pruneOn = prunes(cfg.Assigner)
	if g.cfg.Assigner == nil {
		g.cfg.Assigner = assign.Sequential
	}
	// Idempotent: a no-op when core.Run already prepared the instance, and
	// a safety net for direct callers so the trial re-assignments below hit
	// the precomputed snap path of a node metric.
	in.PrepareMetric()
	in.EnsureHot()
	n := len(in.Centers)
	if g.seqEngine {
		g.orders = cfg.orders
		if g.orders == nil {
			g.orders = assign.NewTaskOrders(in)
		}
	}

	g.states = make([]centerState, n)
	g.pool = newWorkerPool(in)
	g.rhoVec = make([]float64, n)
	g.maxIter = naturalMaxIterations(len(in.Tasks), n)
	return g
}

// join enters center ci's filled state into the game-wide bookkeeping: the
// assigned total, the ρ vector and, while ρ < 1, the recipient set.
func (g *Game) join(ci model.CenterID) {
	st := &g.states[ci]
	g.totalAssigned += st.assigned
	g.rhoVec[ci] = metrics.Ratio(st.assigned, len(g.in.Centers[ci].Tasks))
	if g.rhoVec[ci] < 1 {
		g.recipients = append(g.recipients, ci)
	}
}

// naturalMaxIterations bounds a game over |S| = tasks and |C| = centers:
// the safety net of the game loop and of RunReference's. Every accepted
// move raises the total assigned count by at least one, so there are at
// most |S| of them. A center rejects at most once between two end checks,
// since only a check re-admits it; a check that re-admits a center is
// followed by an accepted move (the check changes no game state, so the
// re-admitted recipient's next sweep finds the same improving move), so
// there are at most |S|+1 such stretches and at most |C|·(|S|+1) rejects.
// The game therefore ends at its stop rule within (|S|+1)·(|C|+1) − 1
// steps, before the bound.
func naturalMaxIterations(tasks, centers int) int {
	return (tasks + 1) * (centers + 1)
}

// Over reports whether the game has terminated (a subsequent Step would
// return false).
func (g *Game) Over() bool {
	return g.done || g.iter >= g.maxIter || len(g.recipients) == 0 || g.pool.len() == 0
}

// Reserve pre-grows the per-iteration output buffers — the trace, the
// transfer log and the ρ-snapshot slab — for n further iterations. Purely a
// performance hint: a reserved steady-state Step appends its outputs without
// growing anything, which the zero-allocation gates rely on.
func (g *Game) Reserve(n int) {
	if cap(g.res.Trace)-len(g.res.Trace) < n {
		t := make([]TraceStep, len(g.res.Trace), len(g.res.Trace)+n)
		copy(t, g.res.Trace)
		g.res.Trace = t
	}
	if cap(g.transfers)-len(g.transfers) < n {
		t := make([]model.Transfer, len(g.transfers), len(g.transfers)+n)
		copy(t, g.transfers)
		g.transfers = t
	}
	rhoLen := len(g.rhoVec)
	if g.members != nil {
		rhoLen = len(g.members)
	}
	g.rhos.Reserve(n * rhoLen)
}

// Step executes one game iteration (Algorithm 3 lines 13–21) and reports
// whether it ran; false means the game was already over and no state
// changed. A step that leaves no recipient runs the end check (readmit)
// before it returns, so Over stays a pure query. After the first false,
// Finish assembles the Result.
func (g *Game) Step() bool {
	if g.Over() {
		return false
	}
	g.iter++
	iter := g.iter
	iterStart := time.Now()
	cfg := &g.cfg
	g.res.Iterations = iter
	mIterations.Inc()
	var iterTS obs.TraceSpan
	if cfg.Tracer != nil {
		iterTS = cfg.Tracer.Start(cfg.TraceParent, "game_iter", obs.F("iter", iter))
	}
	// Line 13: recipient selection — served from the maintained ρ vector
	// instead of a per-iteration rebuild.
	var ci model.CenterID
	switch cfg.Recipient {
	case RandomRecipient:
		ci = g.recipients[cfg.Rng.Intn(len(g.recipients))]
	case MaxLeftover:
		ci = g.recipients[0]
		for _, c := range g.recipients[1:] {
			if len(g.states[c].leftTasks) > len(g.states[ci].leftTasks) ||
				(len(g.states[c].leftTasks) == len(g.states[ci].leftTasks) && c < ci) {
				ci = c
			}
		}
	default:
		ci = metrics.MinRatioCenter(g.rhoVec, g.recipients)
	}
	st := &g.states[ci]

	// Lines 14–15: the recipient's best-response sweep over the pool.
	sw := g.sweep(ci, iterTS.ID())
	cands := sw.cands
	resumed := 0
	if sw.resumed {
		resumed = len(cands)
	}

	step := TraceStep{
		Iteration: iter, Recipient: ci, RhoBefore: g.rhoVec[ci],
		Trials: len(cands), Pruned: sw.pruned, Resumed: resumed, Replays: sw.replays,
	}
	// provDelta/provReplace carry the accepted route delta to the ledger
	// hook below; locals so the disabled path costs nothing.
	var provDelta []model.Route
	provReplace := false
	if sw.best < 0 {
		// Lines 20–21: no improving dispatch — the center leaves C'.
		step.Accepted = false
		step.RhoAfter = g.rhoVec[ci]
		g.recipients = removeCenter(g.recipients, ci)
		mRejections.Inc()
	} else {
		// Lines 16–19: accept the dispatch and update the assignment.
		bestRes := g.trialOf(sw.best)
		bestRho, bestAssigned := sw.bestRho, sw.bestAssigned
		w := cands[sw.best]
		src := g.pool.homeOf(w)
		g.pool.remove(w)
		step.Worker = w
		step.Source = src
		step.Accepted = true
		step.RhoAfter = bestRho

		// The lender loses the worker. It is in the pool, so its route is
		// empty and the lender's routes stay Sequential's answer, if they
		// were, for the smaller set.
		g.states[src].workers = removeSortedID(g.states[src].workers, w)
		st.workers = insertSortedID(st.workers, w)
		g.transfers = append(g.transfers, model.Transfer{Src: src, Dst: ci, Worker: w})
		mTransfers.Inc()

		if cfg.Scope == LeftoverOnly {
			st.routes = append(st.routes, cloneRoutes(bestRes.Routes)...)
			st.leftTasks = append(st.leftTasks[:0:0], bestRes.LeftTasks...)
			// The leftover set shrank, so the cached admission slack
			// (computed over it) is stale.
			st.slackOK = false
			// DC appends the trial's routes to the frozen prior ones.
			provDelta = bestRes.Routes
		} else {
			// Promote the accepted result out of the trial arenas into the
			// center's spare promotion buffer — the live buffer may back
			// the very slices bestRes aliases — then flip. Under the
			// Sequential engine the accepted trial IS Sequential over the
			// new worker set, so the promoted copy is the next trial base.
			pb := &st.promo[1-st.flip]
			pb.promote(bestRes)
			st.flip = 1 - st.flip
			st.routes = pb.routes
			st.leftTasks = pb.left
			st.sequential = g.seqEngine
			// FullReassign replaces the recipient's complete route set.
			provDelta, provReplace = st.routes, true
			// Bi-directional update: sync the pool with the recipient's own
			// workers' new usage. Own workers used by the new plan leave
			// the pool; own workers now unused become available. A merge
			// walk over the two ID-sorted lists does it. Only a custom
			// assigner returns its unused workers unsorted, and the result
			// is the game's own, so it is sorted in place.
			lws := bestRes.LeftWorkers
			slices.Sort(lws)
			li := 0
			for _, ow := range st.workers {
				if g.in.Workers[ow].Home != ci {
					continue
				}
				for li < len(lws) && lws[li] < ow {
					li++
				}
				if li < len(lws) && lws[li] == ow {
					g.pool.add(ow, ci)
				} else {
					g.pool.remove(ow)
				}
			}
		}
		g.totalAssigned += bestAssigned - st.assigned
		st.assigned = bestAssigned
		g.rhoVec[ci] = bestRho
		if bestRho >= 1-rhoEps {
			g.recipients = removeCenter(g.recipients, ci)
		}
	}
	// Unfairness and Φ are recomputed from the maintained ρ vector each
	// step: incremental float updates would drift from the reference bit
	// pattern, while the vector itself is maintained exactly. U_ρ costs one
	// sort of the vector into the kept rhoSort buffer (DESIGN.md §13). A
	// shard-restricted game snapshots the member-ordered vector instead —
	// its trace carries shard-local Φ/U_ρ (DESIGN.md §15).
	var rv []float64
	if g.members == nil {
		rv = g.rhos.Copy(g.rhoVec)
	} else {
		for i, mci := range g.members {
			g.memberRhos[i] = g.rhoVec[mci]
		}
		rv = g.rhos.Copy(g.memberRhos)
	}
	step.Assigned = g.totalAssigned
	step.Unfairness, g.rhoSort = metrics.UnfairnessScratch(rv, g.rhoSort)
	step.Phi = metrics.Phi(rv)
	step.Rhos = rv
	if cfg.Prov != nil {
		cfg.Prov.RecordIter(provenance.IterRec{
			Iter: iter, Recipient: ci, Accepted: step.Accepted,
			Worker: step.Worker, Source: step.Source,
			RhoBefore: step.RhoBefore, RhoAfter: step.RhoAfter,
			Phi: step.Phi, Pruned: sw.pruned, Slack: sw.slack,
			Replace: provReplace,
		}, cands, sw.counts, sw.bounded, sw.resumed, provDelta)
	}
	// The end check runs after the ledger consumed this step's sweep: its
	// own sweeps reuse the same scratch.
	if len(g.recipients) == 0 && g.pool.len() > 0 && g.iter < g.maxIter {
		g.readmit(iterTS.ID())
	}
	step.Duration = time.Since(iterStart)
	mIterSeconds.ObserveDuration(step.Duration)
	mGamePhi.Set(step.Phi)
	g.res.Trace = append(g.res.Trace, step)
	emitGameIter(cfg.Obs, &step)
	if cfg.Tracer != nil {
		iterTS.End(
			obs.F("recipient", int(ci)),
			obs.F("accepted", step.Accepted),
			obs.F("trials", len(cands)),
			obs.F("pruned", sw.pruned),
			obs.F("resumed", resumed),
			obs.F("replays", step.Replays),
			obs.F("rho_after", step.RhoAfter))
	}
	return true
}

// sweepResult is one center's best-response sweep over the current pool.
// cands and counts are pool and evaluation scratch, valid until the next
// sweep; the winner's trial is trialOf(best).
type sweepResult struct {
	cands   []model.WorkerID
	counts  []int  // each candidate's trial assigned count, or its key's bound
	bounded []bool // counts[i] is a bound: the bounded sweep skipped its key
	pruned  int    // pool candidates cut by admissibility pruning
	replays int    // trials evaluated beyond the heads (TraceStep.Replays)
	resumed bool   // trials ran on the prefix-resume engine
	// slack is the admission slack that did the pruning, -1 when the sweep
	// ran unpruned (the ledger records it).
	slack float64
	// best indexes the improving candidate (max ρ, ties to the lowest
	// worker ID), -1 when no candidate strictly improves the center.
	best         int
	bestRho      float64
	bestAssigned int
}

// sweep evaluates center ci's deviation class against the current pool:
// Algorithm 3 lines 14–15 for a recipient, and the same question for a
// departed center at the end check. The candidates are the pool minus ci's
// own workers — admissibility-pruned when pruning is on, since a pruned
// candidate's trial provably returns the baseline and can never win the
// strict-improvement scan. The winner is picked by the same scan as the
// reference loop over the counts the bounded sweep evaluated (evalTrials),
// keeping the output bit-identical.
func (g *Game) sweep(ci model.CenterID, traceParent obs.SpanID) sweepResult {
	cfg := &g.cfg
	in := g.in
	st := &g.states[ci]
	center := in.Center(ci)
	sw := sweepResult{slack: -1, best: -1, bestRho: g.rhoVec[ci], bestAssigned: st.assigned}

	var prunedList []model.WorkerID
	if g.pruneOn {
		if !st.slackOK {
			if cfg.Scope == LeftoverOnly {
				st.slack = assign.AdmissionSlack(in, center, st.leftTasks)
			} else {
				st.slack = assign.AdmissionSlack(in, center, center.Tasks)
			}
			st.slackOK = true
		}
		var onPruned func(model.WorkerID)
		if cfg.prunedHook != nil {
			onPruned = func(w model.WorkerID) { prunedList = append(prunedList, w) }
		}
		sw.cands, sw.pruned = g.pool.admissible(center, ci, st.slack, onPruned)
		sw.slack = st.slack
	} else {
		sw.cands = g.pool.candidates(ci)
	}
	mPruned.Add(int64(sw.pruned))

	var baseWS []model.WorkerID
	if cfg.Scope != LeftoverOnly {
		baseWS = st.workers
	}
	for _, w := range prunedList {
		cfg.prunedHook(ci, w, baseWS, st.leftTasks, st.assigned)
	}

	// The prefix-resume trial base: for the Sequential engine, trials
	// resume from the candidate's serve-order position against the center's
	// current assignment instead of re-running every worker. A center whose
	// assignment is not Sequential's own answer plays full trials until its
	// first accept. The base and its runner are long-lived — Reset/Rebind
	// recycle their arrays.
	var base *assign.TrialBase
	if g.seqEngine && len(sw.cands) > 0 {
		ok := false
		if cfg.Scope == LeftoverOnly {
			// DC trials serve one worker over the leftover tasks: the
			// base is the empty assignment over those tasks.
			ok = g.base.Reset(g.orders, center, nil, nil, st.leftTasks)
		} else if st.sequential {
			ok = g.base.Reset(g.orders, center, baseWS, st.routes, st.leftTasks)
		}
		if ok {
			base = &g.base
			mSnapshotBytes.Set(float64(base.FootprintBytes()))
		}
	}
	// A FullReassign trial must beat the current count; a DC trial's count
	// adds to it, so any task beats it.
	beat := st.assigned
	if cfg.Scope == LeftoverOnly {
		beat = 0
	}
	sw.counts, sw.bounded, sw.replays = g.evalTrials(center, sw.cands, baseWS, st.leftTasks, base, beat, traceParent)
	sw.resumed = base != nil
	mTrials.Add(int64(len(sw.cands)))
	if sw.resumed {
		mResumed.Add(int64(len(sw.cands)))
	}

	// The scan skips the bounded counts: a skipped key can neither beat
	// the winner nor win a tie against it.
	for i, newAssigned := range sw.counts {
		if sw.bounded[i] {
			continue
		}
		if cfg.Scope == LeftoverOnly {
			newAssigned += st.assigned
		}
		newRho := metrics.Ratio(newAssigned, len(center.Tasks))
		if newRho > sw.bestRho+rhoEps {
			sw.bestRho = newRho
			sw.best = i
			sw.bestAssigned = newAssigned
		}
	}
	if cfg.sweptHook != nil {
		cfg.sweptHook(ci, sw, baseWS, st.leftTasks, st.assigned)
	}
	return sw
}

// readmit is the end check of the stop rule (DESIGN.md §5). It runs when a
// step leaves no recipient while the pool is non-empty and the iteration
// bound is not reached: every center with ρ < 1 re-runs its deviation sweep
// against the current pool — the sweep VerifyEquilibrium runs — and the
// centers with an improving deviation rejoin the recipient set, so the game
// ends only at a pure Nash equilibrium. A later re-plan can return a worker
// to the pool after a center departed (Algorithm 3 lines 20–21 drop it for
// good), which is what this catches. The check changes no game state.
func (g *Game) readmit(traceParent obs.SpanID) {
	n := len(g.states)
	if g.members != nil {
		n = len(g.members)
	}
	for i := 0; i < n; i++ {
		ci := model.CenterID(i)
		if g.members != nil {
			ci = g.members[i]
		}
		if g.rhoVec[ci] >= 1 {
			continue
		}
		if sw := g.sweep(ci, traceParent); sw.best >= 0 {
			g.recipients = append(g.recipients, ci)
		}
	}
	slices.Sort(g.recipients)
}

// Finish drops the engine's trial scratch and order table and assembles
// the final Result. Idempotent; Step returns false afterwards.
func (g *Game) Finish() Result {
	if !g.done {
		g.done = true
		g.runner = nil
		g.orders = nil
		sol := model.NewSolution(g.in)
		for ci := range g.states {
			sol.PerCenter[ci].Routes = cloneRoutes(g.states[ci].routes)
		}
		sol.Transfers = g.transfers
		g.res.Solution = sol
	}
	return g.res
}

// emitGameIter publishes one game_iter telemetry event for a completed
// iteration: Game.Step (and so Run) emits each step live, RunSharded each
// step of its final trace; RunReference emits none.
func emitGameIter(o obs.Observer, step *TraceStep) {
	if !obs.Enabled(o) {
		return
	}
	fields := make([]obs.Field, 0, 16)
	fields = append(fields,
		obs.F("iter", step.Iteration),
		obs.F("recipient", int(step.Recipient)),
		obs.F("accepted", step.Accepted))
	if step.Accepted {
		fields = append(fields,
			obs.F("worker", int(step.Worker)),
			obs.F("source", int(step.Source)))
	}
	fields = append(fields,
		obs.F("rho_before", step.RhoBefore),
		obs.F("rho_after", step.RhoAfter),
		obs.F("phi", step.Phi),
		obs.F("rhos", step.Rhos),
		obs.F("assigned", step.Assigned),
		obs.F("unfairness", step.Unfairness),
		obs.F("trials", step.Trials),
		obs.F("pruned", step.Pruned),
		obs.F("resumed", step.Resumed),
		obs.F("replays", step.Replays),
		obs.F("duration_ms", obs.DurationMs(step.Duration)))
	o.Event("game_iter", fields...)
}

const rhoEps = 1e-12

// growCap picks a reallocation capacity: at least double the old buffer,
// with a floor of the immediate need plus slack.
func growCap(oldCap, need int) int {
	c := 2 * oldCap
	if c < need+need/4+16 {
		c = need + need/4 + 16
	}
	return c
}

func countTasks(routes []model.Route) int {
	n := 0
	for _, r := range routes {
		n += len(r.Tasks)
	}
	return n
}

func cloneRoutes(rs []model.Route) []model.Route {
	out := make([]model.Route, len(rs))
	for i, r := range rs {
		out[i] = model.Route{Worker: r.Worker, Center: r.Center, Tasks: append([]model.TaskID(nil), r.Tasks...)}
	}
	return out
}

func removeCenter(cs []model.CenterID, c model.CenterID) []model.CenterID {
	for i, x := range cs {
		if x == c {
			return append(cs[:i], cs[i+1:]...)
		}
	}
	return cs
}

// insertSortedID returns ids (ascending) with w inserted in order. It grows
// ids with growCap headroom: a worker set grows by one element per accepted
// iteration for hundreds of iterations, so the built-in small-slice doubling
// would re-allocate on a majority of steps.
func insertSortedID(ids []model.WorkerID, w model.WorkerID) []model.WorkerID {
	i := sort.Search(len(ids), func(j int) bool { return ids[j] >= w })
	if len(ids) == cap(ids) {
		grown := make([]model.WorkerID, len(ids), growCap(cap(ids), len(ids)+1))
		copy(grown, ids)
		ids = grown
	}
	ids = append(ids, 0)
	copy(ids[i+1:], ids[i:])
	ids[i] = w
	return ids
}

// removeSortedID returns ids (ascending) with w removed, preserving order.
func removeSortedID(ids []model.WorkerID, w model.WorkerID) []model.WorkerID {
	i := sort.Search(len(ids), func(j int) bool { return ids[j] >= w })
	if i == len(ids) || ids[i] != w {
		return ids
	}
	copy(ids[i:], ids[i+1:])
	return ids[:len(ids)-1]
}
