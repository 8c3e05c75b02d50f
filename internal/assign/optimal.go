package assign

import (
	"sort"

	"imtao/internal/model"
	"imtao/internal/routing"
)

// OptimalOptions tunes the Opt baseline.
type OptimalOptions struct {
	// Budget caps the whole per-center computation — VTDS enumeration plus
	// branch-and-bound conflict resolution — in search steps: one step is
	// one VTDS extension the enumeration tries or one node the packing
	// search visits. Zero means unlimited. The enumeration gets at most
	// half of it, so the packing search always has room to assemble a
	// solution from whatever candidates exist. When the budget runs out the
	// best packing found so far is returned: the search always finishes its
	// first descent (one node per worker), a greedy pick that explores
	// candidates largest-first. The paper's Opt runs to completion; the
	// budget keeps huge inputs bounded, and because it counts steps rather
	// than time, a budgeted result is a pure function of the input and the
	// budget.
	Budget int
}

// Optimal computes a per-center task assignment maximizing the number of
// assigned tasks — the paper's "Opt" baseline. It enumerates every VTDS of
// every worker (feasible task subsets of size ≤ maxT, paper §VI-A) and then
// solves the conflict-resolution problem exactly by branch-and-bound set
// packing. Ties between equal-count packings break toward lexicographically
// smaller worker routes, making the result deterministic.
func Optimal(in *model.Instance, c *model.Center, workers []model.WorkerID, tasks []model.TaskID) Result {
	return OptimalOpt(in, c, workers, tasks, OptimalOptions{})
}

// OptimalOpt is Optimal with explicit options.
func OptimalOpt(in *model.Instance, c *model.Center, workers []model.WorkerID, tasks []model.TaskID, opt OptimalOptions) Result {
	res := Result{}
	if len(workers) == 0 || len(tasks) == 0 {
		res.LeftTasks = append([]model.TaskID(nil), tasks...)
		res.LeftWorkers = append([]model.WorkerID(nil), workers...)
		sortResult(&res)
		recordStats(res.Stats)
		return res
	}

	// Dense task indexing for the bitset.
	taskIdx := make(map[model.TaskID]int, len(tasks))
	for i, id := range tasks {
		taskIdx[id] = i
	}
	n := len(tasks)

	// Enumerate candidate VTDS per worker. Feasibility is hereditary
	// (dropping tasks from a feasible sequence keeps it feasible), so DFS
	// extension enumerates exactly the feasible subsets.
	type candidate struct {
		mask bitset
		ids  []model.TaskID // feasible order
	}
	workerList := append([]model.WorkerID(nil), workers...)
	sort.Slice(workerList, func(i, j int) bool { return workerList[i] < workerList[j] })
	cands := make([][]candidate, len(workerList))
	var enumSteps int // extensions tried, against the budget's first half
	enumExpired := false
	for wi, wid := range workerList {
		w := in.Worker(wid)
		var sets []candidate
		var cur []model.TaskID
		var rec func(start int)
		rec = func(start int) {
			if len(cur) >= w.MaxT || enumExpired {
				return
			}
			for ti := start; ti < n; ti++ {
				if opt.Budget > 0 && enumSteps == opt.Budget/2 {
					enumExpired = true
					return
				}
				enumSteps++
				cur = append(cur, tasks[ti])
				res.Stats.TasksScanned++
				if order, ok := routing.BestOrder(in, w, c, cur); ok {
					res.Stats.RouteExtensions++
					mask := newBitset(n)
					for _, id := range cur {
						mask.set(taskIdx[id])
					}
					sets = append(sets, candidate{mask: mask, ids: append([]model.TaskID(nil), order...)})
					rec(ti + 1)
				} else {
					res.Stats.DeadlineRejections++
				}
				cur = cur[:len(cur)-1]
			}
		}
		rec(0)
		// If the enumeration budget expired, guarantee at least the
		// feasible singletons so the packing can still use every worker
		// (never worse than a greedy one-task-per-worker plan).
		if enumExpired {
			have := make(map[int]bool)
			for _, cand := range sets {
				if len(cand.ids) == 1 {
					have[taskIdx[cand.ids[0]]] = true
				}
			}
			for ti := 0; ti < n; ti++ {
				if have[ti] {
					continue
				}
				one := []model.TaskID{tasks[ti]}
				if order, ok := routing.BestOrder(in, w, c, one); ok {
					mask := newBitset(n)
					mask.set(ti)
					sets = append(sets, candidate{mask: mask, ids: append([]model.TaskID(nil), order...)})
				}
			}
		}
		// Largest candidates first so branch-and-bound finds strong
		// incumbents early; ties by first task ID for determinism.
		sort.Slice(sets, func(a, b int) bool {
			if len(sets[a].ids) != len(sets[b].ids) {
				return len(sets[a].ids) > len(sets[b].ids)
			}
			return lessTaskSlices(sets[a].ids, sets[b].ids)
		})
		cands[wi] = sets
	}

	// Branch and bound over workers: pick one candidate (or none) per worker,
	// masks disjoint, maximize total size.
	// maxGain[wi] = max candidate size for worker wi (for the upper bound).
	maxGain := make([]int, len(workerList)+1)
	for wi := len(workerList) - 1; wi >= 0; wi-- {
		g := 0
		if len(cands[wi]) > 0 {
			g = len(cands[wi][0].ids)
		}
		maxGain[wi] = maxGain[wi+1] + g
	}

	best := make([]int, len(workerList)) // candidate index per worker, -1 = none
	chosen := make([]int, len(workerList))
	bestCount := -1
	used := newBitset(n)
	var expired bool
	var steps int
	searchBudget := opt.Budget - enumSteps // nodes left for the packing search

	var rec func(wi, count int)
	rec = func(wi, count int) {
		if expired {
			return
		}
		// The budget stops the search only once an incumbent exists, so an
		// expired search still returns a conflict-free packing.
		if opt.Budget > 0 && steps >= searchBudget && bestCount >= 0 {
			expired = true
			return
		}
		steps++
		if count+maxGain[wi] <= bestCount {
			return // cannot beat the incumbent
		}
		if wi == len(workerList) {
			if count > bestCount {
				bestCount = count
				copy(best, chosen)
			}
			return
		}
		for ci := range cands[wi] {
			cand := &cands[wi][ci]
			if used.intersects(cand.mask) {
				continue
			}
			used.or(cand.mask)
			chosen[wi] = ci
			rec(wi+1, count+len(cand.ids))
			used.andNot(cand.mask)
		}
		chosen[wi] = -1
		rec(wi+1, count)
	}
	for i := range chosen {
		chosen[i] = -1
	}
	rec(0, 0)

	// Materialise the best packing.
	assigned := newBitset(n)
	for wi, wid := range workerList {
		ci := best[wi]
		if ci < 0 || ci >= len(cands[wi]) {
			res.LeftWorkers = append(res.LeftWorkers, wid)
			continue
		}
		cand := &cands[wi][ci]
		res.Routes = append(res.Routes, model.Route{
			Worker: wid, Center: c.ID, Tasks: append([]model.TaskID(nil), cand.ids...),
		})
		assigned.or(cand.mask)
	}
	for i, id := range tasks {
		if !assigned.get(i) {
			res.LeftTasks = append(res.LeftTasks, id)
		}
	}
	sortResult(&res)
	recordStats(res.Stats)
	return res
}

func sortResult(res *Result) {
	sort.Slice(res.LeftTasks, func(i, j int) bool { return res.LeftTasks[i] < res.LeftTasks[j] })
	sort.Slice(res.LeftWorkers, func(i, j int) bool { return res.LeftWorkers[i] < res.LeftWorkers[j] })
	sort.Slice(res.Routes, func(i, j int) bool { return res.Routes[i].Worker < res.Routes[j].Worker })
}

func lessTaskSlices(a, b []model.TaskID) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// bitset is a fixed-capacity bitmap over dense task indices.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) get(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

func (b bitset) intersects(o bitset) bool {
	for i := range b {
		if b[i]&o[i] != 0 {
			return true
		}
	}
	return false
}

func (b bitset) or(o bitset) {
	for i := range b {
		b[i] |= o[i]
	}
}

func (b bitset) andNot(o bitset) {
	for i := range b {
		b[i] &^= o[i]
	}
}
