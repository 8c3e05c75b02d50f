package assign

import (
	"slices"

	"imtao/internal/model"
	"imtao/internal/slab"
)

// SequentialScratch runs the paper-default Sequential assigner
// (SequentialOpt with Options{}) through recycled buffers: the worker order,
// the task pool, the route task slices, the route headers, and both leftover
// sets all come from per-scratch storage that reaches high-water capacity
// and stays there. The phase-2 game uses one scratch for its re-baseline
// path — the fresh assigner run a recipient needs after lending a worker —
// which would otherwise be the last allocating operation in the steady
// state.
//
// Run returns results bit-identical to Sequential: the serve order, the
// pool, the serve loop and the deadline checks are the shared serveOrder,
// cellPool and serveWorker/extendServe code, and the ID-sorted leftover
// sets are total orders, so the sort algorithm cannot influence the output.
type SequentialScratch struct {
	order  []orderEnt
	pool   cellPool
	routes []model.Route
	lws    []model.WorkerID
	left   []model.TaskID
	tasks  slab.Arena[model.TaskID]
}

// Run is Sequential(in, c, workers, tasks) drawing every result slice from
// the scratch. The Result — and every slice it carries — is valid only until
// the next Run; callers that keep it must deep-copy first.
func (s *SequentialScratch) Run(in *model.Instance, c *model.Center,
	workers []model.WorkerID, tasks []model.TaskID) Result {

	res := Result{Sequential: true}
	if len(workers) == 0 {
		s.left = append(s.left[:0], tasks...)
		res.LeftTasks = s.left
		recordStats(res.Stats)
		return res
	}
	in.EnsureHot()
	s.order = serveOrder(s.order, in.HotWorkers(), c.Loc, workers, false)
	pool := &s.pool
	pool.reset(in, c, tasks)
	s.tasks.Reset()

	routes := s.routes[:0]
	lws := s.lws[:0]
	cref := in.CenterRef(c.ID)
	for _, e := range s.order {
		route := serveWorker(in, c, cref, e.wid, pool, &res.Stats, &s.tasks, nil)
		if len(route.Tasks) == 0 {
			lws = append(lws, e.wid)
		} else {
			routes = append(routes, route)
		}
	}
	left := pool.appendLeft(s.left[:0])
	slices.Sort(left)
	slices.Sort(lws)
	s.routes, s.lws, s.left = routes, lws, left

	res.Routes = routes
	res.LeftWorkers = lws
	res.LeftTasks = left
	recordStats(res.Stats)
	return res
}
