package collab

import (
	"runtime"
	"sync"
	"sync/atomic"

	"imtao/internal/assign"
	"imtao/internal/model"
	"imtao/internal/obs"
)

// Trial-pool health metrics: occupancy tracks live helper goroutines.
var (
	mPoolWorkers = obs.Default.Gauge("imtao_collab_pool_workers",
		"live trial-helper goroutines of running games, parked ones included")
	mPoolDispatched = obs.Default.Counter("imtao_collab_pool_trials_total",
		"trial evaluations dispatched to the parallel pool")
)

// parallelism resolves a Config.Parallelism value: 0 (and negatives) mean
// GOMAXPROCS, 1 is the serial path.
func parallelism(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// runner returns the long-lived trial evaluator for the given slot, rebound
// to base (recycling its arenas and restamping its trial pool). Slot 0
// serves the serial path; the parallel path binds one slot per goroutine.
// Runners survive across iterations — the per-iteration Rebind is what lets
// every trial slice come from recycled arena memory instead of the heap.
func (g *Game) runner(slot int, base *assign.TrialBase) *assign.TrialRunner {
	for len(g.runners) <= slot {
		g.runners = append(g.runners, nil)
	}
	if g.runners[slot] == nil {
		g.runners[slot] = base.NewRunner()
	} else {
		g.runners[slot].Rebind(base)
	}
	return g.runners[slot]
}

// fullTrial evaluates one candidate by a complete assigner run — the
// fallback when no prefix-resume base is available (custom assigners, or a
// baseline that does not line up with the serve order).
func (g *Game) fullTrial(center *model.Center, cand model.WorkerID,
	baseWS []model.WorkerID, leftTasks []model.TaskID) assign.Result {
	if g.cfg.Scope == LeftoverOnly {
		return g.cfg.Assigner(g.in, center, []model.WorkerID{cand}, leftTasks)
	}
	ws := make([]model.WorkerID, len(baseWS)+1)
	copy(ws, baseWS)
	ws[len(baseWS)] = cand
	return g.cfg.Assigner(g.in, center, ws, center.Tasks)
}

// tracedTrial wraps one trial evaluation in a "trial" span carrying the
// candidate, the evaluation outcome, and — on the resume path — the replay
// profile of the differential engine.
func (g *Game) tracedTrial(runner *assign.TrialRunner, center *model.Center,
	cand model.WorkerID, baseWS []model.WorkerID, leftTasks []model.TaskID,
	traceParent obs.SpanID) assign.Result {
	outcome := "full"
	if runner != nil {
		outcome = "resumed"
	}
	ts := g.cfg.Tracer.Start(traceParent, "trial",
		obs.F("worker", int(cand)), obs.F("outcome", outcome))
	var r assign.Result
	if runner != nil {
		r = runner.Trial(cand)
		copied, replayed := runner.LastReplay()
		ts.End(obs.F("assigned", r.AssignedCount()), obs.F("scanned", r.Stats.TasksScanned),
			obs.F("routes_copied", copied), obs.F("routes_replayed", replayed))
	} else {
		r = g.fullTrial(center, cand, baseWS, leftTasks)
		ts.End(obs.F("assigned", r.AssignedCount()), obs.F("scanned", r.Stats.TasksScanned))
	}
	return r
}

// evalTrials returns one trial re-assignment result per candidate worker,
// in candidate order. The trials are evaluated — concurrently when
// cfg.Parallelism != 1 — each writing its result to a fixed slot so the
// output is independent of scheduling order.
//
// When base is non-nil, trials are served by the prefix-resume engine: each
// evaluation replays only the serve-order suffix the candidate perturbs
// against base's snapshot (assign.TrialBase), through the game's persistent
// per-slot runners (rebound here, so their arenas recycle instead of
// allocating). A nil base falls back to one full assigner run per trial.
//
// The returned slice is the game's per-iteration scratch: every result in
// it — and every slice those results carry — is valid only until the next
// evalTrials call. baseWS is the recipient's current worker set (ignored
// for LeftoverOnly); each full-run trial appends its candidate to a private
// copy, so the shared slice is never mutated. leftTasks is read-only for
// the assigners.
//
// With a tracer configured, every evaluation is wrapped in a "trial" span
// parented to traceParent (the iteration span) carrying the candidate
// worker and its evaluation outcome — "resumed" when the prefix-resume
// engine served it, "full" for a complete assigner run.
func (g *Game) evalTrials(center *model.Center, cands []model.WorkerID,
	baseWS []model.WorkerID, leftTasks []model.TaskID, base *assign.TrialBase,
	traceParent obs.SpanID) []assign.Result {

	if cap(g.trials) < len(cands) {
		g.trials = make([]assign.Result, len(cands))
	}
	trials := g.trials[:len(cands)]
	if len(cands) == 0 {
		return trials
	}

	workers := min(parallelism(g.cfg.Parallelism), len(cands))
	if base != nil {
		for s := 0; s < workers; s++ {
			g.runner(s, base)
		}
	}
	tp := &g.helpers
	tp.center, tp.cands, tp.baseWS, tp.leftTasks = center, cands, baseWS, leftTasks
	tp.resume, tp.traceParent, tp.trials = base != nil, traceParent, trials
	tp.next.Store(0)
	if workers <= 1 {
		g.drainTrials(0)
		return trials
	}
	for len(tp.wake) < workers {
		wake := make(chan struct{}, 1)
		tp.wake = append(tp.wake, wake)
		tp.live.Add(1)
		go g.trialHelper(len(tp.wake)-1, wake)
	}
	mPoolDispatched.Add(int64(len(cands)))
	tp.busy.Add(workers)
	for s := 0; s < workers; s++ {
		tp.wake[s] <- struct{}{}
	}
	tp.busy.Wait()
	return trials
}

// trialPool is a game's set of helper goroutines for parallel trial
// evaluation, and the batch of candidates they work on. Helper s starts on the
// first evaluation that needs it, parks on wake[s] between iterations and
// evaluates trials through runner slot s; the stepping goroutine waits
// meanwhile, and evaluates alone on the serial path. It does not take a
// slot itself: a goroutine it wakes would sit in its processor's run-next
// slot, which another processor steals only after a back-off (DESIGN.md
// §13). The helpers live until Finish stops them, so a steady-state
// parallel step starts no goroutine and allocates nothing.
type trialPool struct {
	wake []chan struct{}
	busy sync.WaitGroup // helpers still working on the current batch
	live sync.WaitGroup // helpers not yet exited

	// The current batch, written before the helpers are woken and read-only
	// until busy drains. next hands out positions in cands.
	center      *model.Center
	cands       []model.WorkerID
	baseWS      []model.WorkerID
	leftTasks   []model.TaskID
	resume      bool
	traceParent obs.SpanID
	trials      []assign.Result
	next        atomic.Int64
}

// trialHelper is the body of pool helper slot: one batch per wake-up,
// until stopTrialPool closes its channel.
func (g *Game) trialHelper(slot int, wake <-chan struct{}) {
	defer g.helpers.live.Done()
	mPoolWorkers.Add(1)
	defer mPoolWorkers.Add(-1)
	for range wake {
		g.drainTrials(slot)
		g.helpers.busy.Done()
	}
}

// drainTrials evaluates the current batch's candidates through runner slot
// until the shared queue is empty.
func (g *Game) drainTrials(slot int) {
	tp := &g.helpers
	var runner *assign.TrialRunner
	if tp.resume {
		runner = g.runners[slot]
	}
	for {
		i := int(tp.next.Add(1) - 1)
		if i >= len(tp.cands) {
			return
		}
		switch {
		case g.cfg.Tracer != nil:
			tp.trials[i] = g.tracedTrial(runner, tp.center, tp.cands[i], tp.baseWS, tp.leftTasks, tp.traceParent)
		case runner != nil:
			tp.trials[i] = runner.Trial(tp.cands[i])
		default:
			tp.trials[i] = g.fullTrial(tp.center, tp.cands[i], tp.baseWS, tp.leftTasks)
		}
	}
}

// stopTrialPool ends the pool helpers and waits for them to exit.
func (g *Game) stopTrialPool() {
	for _, wake := range g.helpers.wake {
		close(wake)
	}
	g.helpers.wake = nil
	g.helpers.live.Wait()
}
