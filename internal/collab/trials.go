package collab

import (
	"imtao/internal/assign"
	"imtao/internal/model"
	"imtao/internal/obs"
)

// rebind returns the game's long-lived trial evaluator, rebound to base
// (recycling its arenas and restamping its trial pool). The runner survives
// across iterations — the per-iteration Rebind is what lets every trial
// slice come from recycled arena memory instead of the heap.
func (g *Game) rebind(base *assign.TrialBase) *assign.TrialRunner {
	if g.runner == nil {
		g.runner = base.NewRunner()
	} else {
		g.runner.Rebind(base)
	}
	return g.runner
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
// (assign.TrialBase) through the game's one long-lived runner, rebound here
// so its arenas recycle. A trial depends on its candidate only through the
// candidate's TrialKey (DESIGN.md §11): the heads run first and group the
// candidates by key. Then one Trial per key runs, for the key's first
// candidate in ID order, and every candidate takes its key's count. The
// strict "max ρ, ties to the lowest ID" scan can pick only a key's first
// candidate, since the others tie with it. The empty key's Trial returns
// the shared baseline and is no replay. A nil base falls back to one full
// assigner run per candidate.
//
// Every head and trial runs on the calling goroutine. The counts and every trialOf Result are per-sweep
// scratch, valid until the next evalTrials call. baseWS is the recipient's
// current worker set (ignored for LeftoverOnly); each full-run trial
// appends its candidate to a private copy, so the shared slice is never
// mutated. leftTasks is read-only for the assigners.
//
// With a tracer configured, every candidate gets a "trial" span parented to
// traceParent (the iteration span): on the prefix-resume path it covers the
// head and carries the key, and each key's Trial gets a "replay" span; on
// the full path the "trial" span covers the full run.
func (g *Game) evalTrials(center *model.Center, cands []model.WorkerID,
	baseWS []model.WorkerID, leftTasks []model.TaskID, base *assign.TrialBase,
	traceParent obs.SpanID) (counts []int, replays int) {

	g.group, g.reps = g.group[:0], g.reps[:0]
	var runner *assign.TrialRunner
	if base != nil {
		runner = g.rebind(base)
		if g.groupOf == nil {
			g.groupOf = make(map[assign.TrialKey]int32)
		}
		clear(g.groupOf)
		for _, cand := range cands {
			var key assign.TrialKey
			if g.cfg.Tracer != nil {
				ts := g.cfg.Tracer.Start(traceParent, "trial",
					obs.F("worker", int(cand)), obs.F("outcome", "resumed"))
				key = runner.Head(cand)
				ts.End(obs.F("serve_pos", int(key.Pos)), obs.F("route_len", int(key.Len)))
			} else {
				key = runner.Head(cand)
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
	for i, cand := range g.reps {
		switch {
		case g.cfg.Tracer != nil:
			g.results[i] = g.tracedTrial(runner, center, cand, baseWS, leftTasks, traceParent)
		case runner != nil:
			g.results[i] = runner.Trial(cand)
		default:
			g.results[i] = g.fullTrial(center, cand, baseWS, leftTasks)
		}
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
