package collab

import (
	"sort"
	"time"

	"imtao/internal/assign"
	"imtao/internal/metrics"
	"imtao/internal/model"
)

// RunReference is the frozen pre-engine collaboration loop: every iteration
// rebuilds the candidate list from the pool map, re-derives the ρ vector and
// total assigned count from scratch, and evaluates one full assigner run per
// candidate, one after another — no admissibility pruning, no prefix-resume,
// no goroutines. Its end check is the same plain sweep over every departed
// center (DESIGN.md §5). It is the behavioral reference for the optimized
// Run (DESIGN.md §11): the equivalence tests assert bit-identical routes,
// transfers and trace against it; no binary calls it. It reads only the
// game's rules from cfg (Recipient, Scope, Assigner, Rng) and ignores the
// instrumentation fields: it updates no metric and emits no event. Do not
// optimize this function.
func RunReference(in *model.Instance, phase1 []assign.Result, cfg Config) Result {
	if cfg.Assigner == nil {
		cfg.Assigner = assign.Sequential
	}
	in.PrepareMetric()
	n := len(in.Centers)

	// Per-center mutable state.
	type centerState struct {
		routes    []model.Route
		leftTasks []model.TaskID
		// own is the set of workers homed here and not lent out.
		own map[model.WorkerID]bool
		// borrowed workers received from other centers, in arrival order.
		borrowed []model.WorkerID
		rho      float64
	}
	states := make([]centerState, n)
	// pool is the available worker set C.W_left: worker -> home center.
	pool := make(map[model.WorkerID]model.CenterID)
	for ci := range in.Centers {
		st := &states[ci]
		st.routes = cloneRoutes(phase1[ci].Routes)
		st.leftTasks = append([]model.TaskID(nil), phase1[ci].LeftTasks...)
		st.own = make(map[model.WorkerID]bool, len(in.Centers[ci].Workers))
		for _, w := range in.Centers[ci].Workers {
			st.own[w] = true
		}
		st.rho = metrics.Ratio(countTasks(st.routes), len(in.Centers[ci].Tasks))
		for _, w := range phase1[ci].LeftWorkers {
			pool[w] = model.CenterID(ci)
		}
	}

	// Line 3–10: recipient set C' = centers with ρ < 1.
	var recipients []model.CenterID
	for ci := range in.Centers {
		if states[ci].rho < 1 {
			recipients = append(recipients, model.CenterID(ci))
		}
	}

	maxIter := naturalMaxIterations(len(in.Tasks), n)

	res := Result{}
	var transfers []model.Transfer
	rhos := func() []float64 {
		out := make([]float64, n)
		for i := range states {
			out[i] = states[i].rho
		}
		return out
	}
	totalAssigned := func() int {
		t := 0
		for i := range states {
			t += countTasks(states[i].routes)
		}
		return t
	}

	workerSetOf := func(ci model.CenterID) []model.WorkerID {
		st := &states[ci]
		out := make([]model.WorkerID, 0, len(st.own)+len(st.borrowed))
		for w := range st.own {
			out = append(out, w)
		}
		out = append(out, st.borrowed...)
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}

	// sweep is center ci's deviation sweep against the current pool: the
	// sorted candidate list, one trial per candidate, and the improving
	// candidate's index — -1 when none strictly raises ρ.
	sweep := func(ci model.CenterID) (cands []model.WorkerID, trials []assign.Result,
		bestIdx int, bestRho float64) {
		st := &states[ci]
		center := in.Center(ci)

		// Candidate workers: available pool minus the recipient's own.
		cands = make([]model.WorkerID, 0, len(pool))
		for w := range pool {
			if !st.own[w] {
				cands = append(cands, w)
			}
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })

		// Line 14–15: best response via one full re-assignment per candidate.
		var baseWS []model.WorkerID
		if cfg.Scope != LeftoverOnly {
			baseWS = workerSetOf(ci)
		}
		trials = evalTrialsRef(in, center, cands, baseWS, st.leftTasks, cfg)

		curAssigned := countTasks(st.routes)
		bestRho = st.rho
		bestIdx = -1
		for i := range cands {
			newAssigned := trials[i].AssignedCount()
			if cfg.Scope == LeftoverOnly {
				newAssigned += curAssigned
			}
			newRho := metrics.Ratio(newAssigned, len(center.Tasks))
			if newRho > bestRho+rhoEps {
				bestRho = newRho
				bestIdx = i
			}
		}
		return cands, trials, bestIdx, bestRho
	}

	for iter := 1; iter <= maxIter && len(recipients) > 0 && len(pool) > 0; iter++ {
		iterStart := time.Now()
		res.Iterations = iter
		// Line 13: recipient selection.
		var ci model.CenterID
		switch cfg.Recipient {
		case RandomRecipient:
			ci = recipients[cfg.Rng.Intn(len(recipients))]
		case MaxLeftover:
			ci = recipients[0]
			for _, c := range recipients[1:] {
				if len(states[c].leftTasks) > len(states[ci].leftTasks) ||
					(len(states[c].leftTasks) == len(states[ci].leftTasks) && c < ci) {
					ci = c
				}
			}
		default:
			ci = metrics.MinRatioCenter(rhos(), recipients)
		}
		st := &states[ci]
		cands, trials, bestIdx, bestRho := sweep(ci)

		step := TraceStep{
			Iteration: iter, Recipient: ci, RhoBefore: st.rho,
			Trials: len(cands),
		}
		if bestIdx < 0 {
			step.Accepted = false
			step.RhoAfter = st.rho
			recipients = removeCenter(recipients, ci)
		} else {
			bestRes := trials[bestIdx]
			w := cands[bestIdx]
			src := pool[w]
			delete(pool, w)
			step.Worker = w
			step.Source = src
			step.Accepted = true
			step.RhoAfter = bestRho

			delete(states[src].own, w)
			st.borrowed = append(st.borrowed, w)
			transfers = append(transfers, model.Transfer{Src: src, Dst: ci, Worker: w})

			if cfg.Scope == LeftoverOnly {
				st.routes = append(st.routes, cloneRoutes(bestRes.Routes)...)
				st.leftTasks = append([]model.TaskID(nil), bestRes.LeftTasks...)
			} else {
				st.routes = cloneRoutes(bestRes.Routes)
				st.leftTasks = append([]model.TaskID(nil), bestRes.LeftTasks...)
				leftSet := make(map[model.WorkerID]bool, len(bestRes.LeftWorkers))
				for _, lw := range bestRes.LeftWorkers {
					leftSet[lw] = true
				}
				for ow := range st.own {
					if leftSet[ow] {
						pool[ow] = ci
					} else {
						delete(pool, ow)
					}
				}
			}
			st.rho = bestRho
			if st.rho >= 1-rhoEps {
				recipients = removeCenter(recipients, ci)
			}
		}
		// End check: every departed center with ρ < 1 re-runs its sweep;
		// those with an improving deviation play again.
		if len(recipients) == 0 && len(pool) > 0 && iter < maxIter {
			for c := range in.Centers {
				if states[c].rho >= 1 {
					continue
				}
				if _, _, best, _ := sweep(model.CenterID(c)); best >= 0 {
					recipients = append(recipients, model.CenterID(c))
				}
			}
		}
		rv := rhos()
		step.Assigned = totalAssigned()
		step.Unfairness = metrics.Unfairness(rv)
		step.Phi = metrics.Phi(rv)
		step.Rhos = rv
		step.Duration = time.Since(iterStart)
		res.Trace = append(res.Trace, step)
	}

	sol := model.NewSolution(in)
	for ci := range states {
		sol.PerCenter[ci].Routes = cloneRoutes(states[ci].routes)
	}
	sol.Transfers = transfers
	res.Solution = sol
	return res
}

// evalTrialsRef is the frozen full-trial evaluator backing RunReference:
// every candidate costs one complete assigner run over the recipient's
// worker set plus the candidate, evaluated serially in candidate order.
func evalTrialsRef(in *model.Instance, center *model.Center, cands []model.WorkerID,
	baseWS []model.WorkerID, leftTasks []model.TaskID, cfg Config) []assign.Result {

	trials := make([]assign.Result, len(cands))
	for i, w := range cands {
		if cfg.Scope == LeftoverOnly {
			trials[i] = cfg.Assigner(in, center, []model.WorkerID{w}, leftTasks)
			continue
		}
		ws := make([]model.WorkerID, len(baseWS)+1)
		copy(ws, baseWS)
		ws[len(baseWS)] = w
		trials[i] = cfg.Assigner(in, center, ws, center.Tasks)
	}
	return trials
}
