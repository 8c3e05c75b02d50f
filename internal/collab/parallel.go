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

// tracedTrial wraps one trial evaluation in a span: on the full path the
// candidate's "trial" span, carrying its outcome, and on the prefix-resume
// path the "replay" span of its key's Trial, carrying the replay profile of
// the differential engine.
func (g *Game) tracedTrial(runner *assign.TrialRunner, center *model.Center,
	cand model.WorkerID, baseWS []model.WorkerID, leftTasks []model.TaskID,
	traceParent obs.SpanID) assign.Result {
	if runner == nil {
		ts := g.cfg.Tracer.Start(traceParent, "trial",
			obs.F("worker", int(cand)), obs.F("outcome", "full"))
		r := g.fullTrial(center, cand, baseWS, leftTasks)
		ts.End(obs.F("assigned", r.AssignedCount()), obs.F("scanned", r.Stats.TasksScanned))
		return r
	}
	ts := g.cfg.Tracer.Start(traceParent, "replay", obs.F("worker", int(cand)))
	r := runner.Trial(cand)
	copied, replayed := runner.LastReplay()
	ts.End(obs.F("assigned", r.AssignedCount()), obs.F("scanned", r.Stats.TasksScanned),
		obs.F("routes_copied", copied), obs.F("routes_replayed", replayed))
	return r
}

// evalTrials evaluates one sweep's candidates and returns each one's trial
// assigned count, in candidate order, plus the number of trials it ran
// beyond the heads (TraceStep.Replays). trialOf(i) is candidate i's full
// Result when i is the first candidate of its group; only those can win.
//
// When base is non-nil, trials are served by the prefix-resume engine
// (assign.TrialBase) through the game's persistent per-slot runners,
// rebound here so their arenas recycle. A trial depends on its candidate
// only through the candidate's TrialKey (DESIGN.md §11): the heads run
// first, serially on slot 0, and group the candidates by key. Then one
// Trial per key runs, for the key's first candidate in ID order, and every
// candidate takes its key's count. The strict "max ρ, ties to the lowest
// ID" scan can pick only a key's first candidate, since the others tie
// with it. The empty key's Trial returns the shared baseline and is no
// replay. A nil base falls back to one full assigner run per candidate.
//
// The trials run concurrently when cfg.Parallelism != 1, each writing its
// result to a fixed slot, so the output is independent of scheduling order.
// The counts and every trialOf Result are per-sweep scratch, valid until
// the next evalTrials call. baseWS is the recipient's current worker set
// (ignored for LeftoverOnly); each full-run trial appends its candidate to
// a private copy, so the shared slice is never mutated. leftTasks is
// read-only for the assigners.
//
// With a tracer configured, every candidate gets a "trial" span parented to
// traceParent (the iteration span): on the prefix-resume path it covers the
// head and carries the key, and each key's Trial gets a "replay" span; on
// the full path the "trial" span covers the full run.
func (g *Game) evalTrials(center *model.Center, cands []model.WorkerID,
	baseWS []model.WorkerID, leftTasks []model.TaskID, base *assign.TrialBase,
	traceParent obs.SpanID) (counts []int, replays int) {

	g.group, g.reps = g.group[:0], g.reps[:0]
	if base != nil {
		// The heads run on slot 0, which the serial path reuses below.
		head := g.runner(0, base)
		if g.groupOf == nil {
			g.groupOf = make(map[assign.TrialKey]int32)
		}
		clear(g.groupOf)
		for _, cand := range cands {
			var key assign.TrialKey
			if g.cfg.Tracer != nil {
				ts := g.cfg.Tracer.Start(traceParent, "trial",
					obs.F("worker", int(cand)), obs.F("outcome", "resumed"))
				key = head.Head(cand)
				ts.End(obs.F("serve_pos", int(key.Pos)), obs.F("route_len", int(key.Len)))
			} else {
				key = head.Head(cand)
			}
			gi, ok := g.groupOf[key]
			if !ok {
				gi = int32(len(g.reps))
				g.groupOf[key] = gi
				g.reps = append(g.reps, cand)
				if key.Len > 0 {
					replays++
				}
			}
			g.group = append(g.group, gi)
		}
	} else {
		for i, cand := range cands {
			g.group = append(g.group, int32(i))
			g.reps = append(g.reps, cand)
		}
		replays = len(cands)
	}
	if cap(g.results) < len(g.reps) {
		g.results = make([]assign.Result, len(g.reps), growCap(cap(g.results), len(g.reps)))
	}
	g.results = g.results[:len(g.reps)]

	workers := min(parallelism(g.cfg.Parallelism), len(g.reps))
	if base != nil {
		for s := 1; s < workers; s++ {
			g.runner(s, base)
		}
	}
	tp := &g.helpers
	tp.center, tp.cands, tp.baseWS, tp.leftTasks = center, g.reps, baseWS, leftTasks
	tp.resume, tp.traceParent, tp.results = base != nil, traceParent, g.results
	tp.next.Store(0)
	if workers <= 1 {
		g.drainTrials(0)
	} else {
		for len(tp.wake) < workers {
			wake := make(chan struct{}, 1)
			tp.wake = append(tp.wake, wake)
			tp.live.Add(1)
			go g.trialHelper(len(tp.wake)-1, wake)
		}
		mPoolDispatched.Add(int64(len(g.reps)))
		tp.busy.Add(workers)
		for s := 0; s < workers; s++ {
			tp.wake[s] <- struct{}{}
		}
		tp.busy.Wait()
	}

	g.counts = g.counts[:0]
	for _, gi := range g.group {
		g.counts = append(g.counts, g.results[gi].AssignedCount())
	}
	return g.counts, replays
}

// trialOf returns candidate i's trial from the latest evalTrials call. It
// is the candidate's own trial only when i is its group's first candidate;
// the others share the group's assigned count but not its routes.
func (g *Game) trialOf(i int) *assign.Result {
	return &g.results[g.group[i]]
}

// trialPool is a game's set of helper goroutines for parallel trial
// evaluation, and the batch of trials they work on. Helper s starts on the
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
	// until busy drains: one trial per candidate in cands, into the same
	// position of results. next hands out positions in cands.
	center      *model.Center
	cands       []model.WorkerID
	baseWS      []model.WorkerID
	leftTasks   []model.TaskID
	resume      bool
	traceParent obs.SpanID
	results     []assign.Result
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

// drainTrials evaluates the current batch's trials through runner slot
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
		cand := tp.cands[i]
		switch {
		case g.cfg.Tracer != nil:
			tp.results[i] = g.tracedTrial(runner, tp.center, cand, tp.baseWS, tp.leftTasks, tp.traceParent)
		case runner != nil:
			tp.results[i] = runner.Trial(cand)
		default:
			tp.results[i] = g.fullTrial(tp.center, cand, tp.baseWS, tp.leftTasks)
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
