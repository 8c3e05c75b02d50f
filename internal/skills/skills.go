// Package skills implements the multi-skilled extension the paper's
// discussion (§V-E) names as future work: tasks demand skill sets and only
// workers possessing every required skill may deliver them. The package
// provides a skill-aware variant of the sequential task assignment
// (Algorithm 2 with a compatibility filter on the nearest-task query) and a
// compatibility report used to detect unservable tasks up front.
package skills

import (
	"fmt"
	"math/bits"
	"sort"

	"imtao/internal/index"
	"imtao/internal/model"
)

// Set is a bitmask of up to 64 skills.
type Set uint64

// Of builds a Set from skill indices (0–63).
func Of(skills ...int) Set {
	var s Set
	for _, k := range skills {
		s |= 1 << uint(k)
	}
	return s
}

// Has reports whether s contains every skill in req.
func (s Set) Has(req Set) bool { return s&req == req }

// Count returns the number of skills in the set.
func (s Set) Count() int { return bits.OnesCount64(uint64(s)) }

// Profile attaches skill information to an instance: Required[t] is the
// skill set task t demands; Owned[w] is the skill set worker w possesses.
// Missing entries default to zero (no requirement / no skills).
type Profile struct {
	Required map[model.TaskID]Set
	Owned    map[model.WorkerID]Set
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{
		Required: make(map[model.TaskID]Set),
		Owned:    make(map[model.WorkerID]Set),
	}
}

// Compatible reports whether worker w may deliver task t.
func (p *Profile) Compatible(w model.WorkerID, t model.TaskID) bool {
	return p.Owned[w].Has(p.Required[t])
}

// Unservable returns the tasks of the given set no worker in the given set
// can deliver, regardless of geometry — a planning red flag.
func (p *Profile) Unservable(tasks []model.TaskID, workers []model.WorkerID) []model.TaskID {
	var out []model.TaskID
	for _, t := range tasks {
		ok := false
		for _, w := range workers {
			if p.Compatible(w, t) {
				ok = true
				break
			}
		}
		if !ok {
			out = append(out, t)
		}
	}
	return out
}

// Result mirrors assign.Result for the skill-aware assigner.
type Result struct {
	Routes      []model.Route
	LeftWorkers []model.WorkerID
	LeftTasks   []model.TaskID
}

// AssignedCount returns the number of tasks assigned.
func (r *Result) AssignedCount() int {
	n := 0
	for _, rt := range r.Routes {
		n += len(rt.Tasks)
	}
	return n
}

// Sequential is Algorithm 2 with skill compatibility: each worker greedily
// takes the nearest unassigned task it is qualified for, subject to the
// usual capacity and deadline constraints.
func Sequential(in *model.Instance, c *model.Center, workers []model.WorkerID, tasks []model.TaskID, prof *Profile) Result {
	res := Result{}
	if len(workers) == 0 {
		res.LeftTasks = append([]model.TaskID(nil), tasks...)
		return res
	}
	order := append([]model.WorkerID(nil), workers...)
	sort.Slice(order, func(i, j int) bool {
		di := in.Worker(order[i]).Loc.Dist2(c.Loc)
		dj := in.Worker(order[j]).Loc.Dist2(c.Loc)
		if di != dj {
			return di > dj // marginal first, as in the paper
		}
		return order[i] < order[j]
	})

	items := make([]index.Item, len(tasks))
	for i, id := range tasks {
		items[i] = index.Item{ID: int(id), Point: in.Task(id).Loc}
	}
	assigned := make(map[model.TaskID]bool, len(tasks))

	for _, wid := range order {
		w := in.Worker(wid)
		route := model.Route{Worker: wid, Center: c.ID}
		t := in.TravelTime(w.Loc, c.Loc)
		cur := c.Loc
		for len(route.Tasks) < w.MaxT {
			item, ok := index.LinearNearest(items, cur, func(it index.Item) bool {
				tid := model.TaskID(it.ID)
				return !assigned[tid] && prof.Compatible(wid, tid)
			})
			if !ok {
				break
			}
			tid := model.TaskID(item.ID)
			task := in.Task(tid)
			arrive := t + in.TravelTime(cur, task.Loc)
			if arrive > task.Expiry+1e-9 {
				break
			}
			assigned[tid] = true
			route.Tasks = append(route.Tasks, tid)
			t = arrive
			cur = task.Loc
		}
		if len(route.Tasks) == 0 {
			res.LeftWorkers = append(res.LeftWorkers, wid)
		} else {
			res.Routes = append(res.Routes, route)
		}
	}
	for _, id := range tasks {
		if !assigned[id] {
			res.LeftTasks = append(res.LeftTasks, id)
		}
	}
	sort.Slice(res.LeftTasks, func(i, j int) bool { return res.LeftTasks[i] < res.LeftTasks[j] })
	sort.Slice(res.LeftWorkers, func(i, j int) bool { return res.LeftWorkers[i] < res.LeftWorkers[j] })
	return res
}

// String renders a Set like {0,3,7}.
func (s Set) String() string {
	out := "{"
	first := true
	for k := 0; k < 64; k++ {
		if s&(1<<uint(k)) != 0 {
			if !first {
				out += ","
			}
			out += fmt.Sprintf("%d", k)
			first = false
		}
	}
	return out + "}"
}
