package collab

import (
	"sort"

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

// fullTrial evaluates one candidate by a complete assigner run — the path
// when no prefix-resume base is available (custom assigners, or a center
// whose assignment is not Sequential's own answer).
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
// path the "replay" span of its key's Trial.
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
	ts.End(obs.F("assigned", r.AssignedCount()), obs.F("scanned", r.Stats.TasksScanned))
	return r
}

// sweepKey is one trial key of a sweep: its first candidate in ID order,
// the bound on its assigned count (assign.TrialBase.Bound), and its count —
// the bound until the key's Trial runs.
type sweepKey struct {
	key   assign.TrialKey
	rep   model.WorkerID
	bound int
	n     int
	exact bool
}

// keyOrder is the bounded sweep's evaluation order over its keys: bound
// descending, then first candidate ascending. It sorts the recycled index
// slice idx through sort.Interface on a pointer, so sorting allocates
// nothing.
type keyOrder struct {
	keys []sweepKey
	idx  []int32
}

func (o *keyOrder) Len() int      { return len(o.idx) }
func (o *keyOrder) Swap(i, j int) { o.idx[i], o.idx[j] = o.idx[j], o.idx[i] }
func (o *keyOrder) Less(i, j int) bool {
	a, b := &o.keys[o.idx[i]], &o.keys[o.idx[j]]
	if a.bound != b.bound {
		return a.bound > b.bound
	}
	return a.rep < b.rep
}

// evalTrials evaluates one sweep's candidates and returns each one's trial
// assigned count, in candidate order, whether that count is only its key's
// bound, and the number of trials it ran beyond the heads
// (TraceStep.Replays). trialOf(i) is candidate i's full Result when i is
// the first candidate of an evaluated key; only those can win.
//
// When base is non-nil, trials are served by the prefix-resume engine
// (assign.TrialBase) through the game's one long-lived runner, rebound here
// so its arenas recycle. A trial depends on its candidate only through the
// candidate's TrialKey (DESIGN.md §11): the heads run first and group the
// candidates by key, and every candidate takes its key's count. The strict
// "max ρ, ties to the lowest ID" scan can pick only a key's first candidate
// in ID order, since the others tie with it. The keys are then evaluated in
// keyOrder, one Trial each for the first candidate, while a key can still
// win: its bound exceeds the best count found so far, or equals it once
// some key has beaten beat (the count a trial must strictly exceed) and its
// first candidate has the lower ID. The first key that can do neither ends
// the sweep, and every later key keeps its bound, flagged in bounded. The
// empty key never runs: its bound is the base's own count, which is beat.
// A nil base falls back to one full assigner run per candidate, and beat
// is unused.
//
// Every head and trial runs on the calling goroutine. The counts, the flags
// and every trialOf Result are per-sweep scratch, valid until the next
// evalTrials call. baseWS is the recipient's current worker set (ignored
// for LeftoverOnly); each full-run trial appends its candidate to a private
// copy, so the shared slice is never mutated. leftTasks is read-only for
// the assigners.
//
// With a tracer configured, every candidate gets a "trial" span parented to
// traceParent (the iteration span): on the prefix-resume path it covers the
// head and carries the key, and each evaluated key's Trial gets a "replay"
// span; on the full path the "trial" span covers the full run.
func (g *Game) evalTrials(center *model.Center, cands []model.WorkerID,
	baseWS []model.WorkerID, leftTasks []model.TaskID, base *assign.TrialBase,
	beat int, traceParent obs.SpanID) (counts []int, bounded []bool, replays int) {

	g.group, g.keys.keys, g.keys.idx = g.group[:0], g.keys.keys[:0], g.keys.idx[:0]
	g.counts, g.bounded = g.counts[:0], g.bounded[:0]
	if base == nil {
		g.growResults(len(cands))
		for i, cand := range cands {
			if g.cfg.Tracer != nil {
				g.results[i] = g.tracedTrial(nil, center, cand, baseWS, leftTasks, traceParent)
			} else {
				g.results[i] = g.fullTrial(center, cand, baseWS, leftTasks)
			}
			g.group = append(g.group, int32(i))
			g.counts = append(g.counts, g.results[i].AssignedCount())
			g.bounded = append(g.bounded, false)
		}
		return g.counts, g.bounded, len(cands)
	}

	runner := g.rebind(base)
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
			gi = int32(len(g.keys.keys))
			g.groupOf[key] = gi
			bound := base.Bound(key)
			g.keys.keys = append(g.keys.keys, sweepKey{key: key, rep: cand, bound: bound, n: bound})
			g.keys.idx = append(g.keys.idx, gi)
		}
		g.group = append(g.group, gi)
	}
	g.growResults(len(g.keys.keys))
	sort.Sort(&g.keys)
	// bestRep is the first candidate of the best key so far, -1 until a
	// key beats beat.
	best, bestRep := beat, model.WorkerID(-1)
	for _, gi := range g.keys.idx {
		k := &g.keys.keys[gi]
		if k.bound < best || k.bound == best && (bestRep < 0 || k.rep > bestRep) {
			break
		}
		if g.cfg.Tracer != nil {
			g.results[gi] = g.tracedTrial(runner, center, k.rep, baseWS, leftTasks, traceParent)
		} else {
			g.results[gi] = runner.Trial(k.rep)
		}
		k.n, k.exact = g.results[gi].AssignedCount(), true
		replays++
		if k.n > best || k.n == best && bestRep >= 0 && k.rep < bestRep {
			best, bestRep = k.n, k.rep
		}
	}
	for _, gi := range g.group {
		k := &g.keys.keys[gi]
		g.counts = append(g.counts, k.n)
		g.bounded = append(g.bounded, !k.exact)
	}
	return g.counts, g.bounded, replays
}

// growResults makes room for n trial results.
func (g *Game) growResults(n int) {
	if cap(g.results) < n {
		g.results = make([]assign.Result, n, growCap(cap(g.results), n))
	}
	g.results = g.results[:n]
}

// trialOf returns candidate i's trial from the latest evalTrials call. It
// is the candidate's own trial only when i is its group's first candidate;
// the others share the group's assigned count but not its routes.
func (g *Game) trialOf(i int) *assign.Result {
	return &g.results[g.group[i]]
}
