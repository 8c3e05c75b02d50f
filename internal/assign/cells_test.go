package assign

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"imtao/internal/geo"
	"imtao/internal/index"
	"imtao/internal/model"
	"imtao/internal/roadnet"
)

// TestCellPoolNearestMatchesLinear drives the phase-1 pool through every
// orderScene layout — uniform, duplicate-point lattice, fewer tasks than a
// cell row, clusters, a line, a single repeated point — and checks every
// query against a linear scan of the live tasks: same task, ties to the
// smaller ID, and the metric's travel time bit for bit. Queries start at
// the center (which some scenes move outside its tasks' box), at any of the
// center's tasks, live or dead, at the task just taken, or at a point
// anywhere on or far off the map. Removals mostly take the answer, as a
// serving worker does, and sometimes a random live task; every pool drains
// to empty. Some pools hold only a subset of the center's tasks, and one
// pool is recycled across all scenes.
func TestCellPoolNearestMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var p cellPool
	for trial := 0; trial < 240; trial++ {
		kind := orderKinds[trial%len(orderKinds)]
		in := orderScene(rng, kind)
		if trial%3 == 2 {
			net, err := roadnet.New(in.Bounds, 16, 16, in.Speed)
			if err != nil {
				t.Fatal(err)
			}
			in.Metric = net
			in.PrepareMetric()
			in.EnsureHot()
		}
		c := in.Center(0)
		if trial%5 == 4 {
			c.Loc = geo.Pt(400, -300)
		}
		th := in.HotTasks()
		tasks := c.Tasks
		if trial%4 == 3 {
			tasks = nil
			for _, sid := range c.Tasks {
				if rng.Intn(3) > 0 {
					tasks = append(tasks, sid)
				}
			}
		}
		p.reset(in, c, tasks)
		live := make([]index.Item, len(tasks))
		for i, sid := range tasks {
			live[i] = index.Item{ID: int(sid), Point: th[sid].Loc}
		}
		last := model.TaskID(-1)
		for {
			q, qRef, from := c.Loc, in.CenterRef(0), last
			switch rng.Intn(6) {
			case 0:
				from = -1
			case 1:
				from = c.Tasks[rng.Intn(len(c.Tasks))]
			case 2:
				// A point anywhere within ±3000, mostly off the map.
				from = 0
				q, qRef = geo.Pt(rng.Float64()*6000-3000, rng.Float64()*6000-3000), noRef
			}
			if from >= 0 && qRef != noRef {
				q, qRef = th[from].Loc, th[from].Ref
			}
			got, tt, ok := p.nearest(q, qRef, from)
			want, wok := index.LinearNearest(live, q, nil)
			if ok != wok || (ok && int(got) != want.ID) {
				t.Fatalf("%s trial %d: nearest from %d at %v = %d/%v, want %d/%v",
					kind, trial, from, q, got, ok, want.ID, wok)
			}
			if !ok {
				break
			}
			if wt := in.TravelTimeRef(q, qRef, th[got].Loc, th[got].Ref); math.Float64bits(tt) != math.Float64bits(wt) {
				t.Fatalf("%s trial %d: travel %v, metric says %v", kind, trial, tt, wt)
			}
			victim := got
			if rng.Intn(6) == 0 {
				victim = model.TaskID(live[rng.Intn(len(live))].ID)
				p.last = int32(slices.Index(p.ids, int32(victim)))
			}
			p.take()
			i := slices.IndexFunc(live, func(it index.Item) bool { return it.ID == int(victim) })
			live = slices.Delete(live, i, i+1)
			if p.len() != len(live) {
				t.Fatalf("%s trial %d: pool len %d, want %d", kind, trial, p.len(), len(live))
			}
			if rng.Intn(8) == 0 {
				left := p.appendLeft(nil)
				want := make([]model.TaskID, len(live))
				for i, it := range live {
					want[i] = model.TaskID(it.ID)
				}
				slices.Sort(left)
				slices.Sort(want)
				if !slices.Equal(left, want) {
					t.Fatalf("%s trial %d: left %v, want %v", kind, trial, left, want)
				}
			}
			last = victim
		}
	}
}

// poolScene builds a one-center instance of up to ~600 tasks for the
// assigner equivalence tests: uniform, skewed (half the tasks in a 2%
// corner patch), duplicate-point, clustered or collinear tasks; a center
// sometimes outside its tasks' box; deadlines from loose to tight enough to
// end most routes early; and per-worker capacities.
func poolScene(rng *rand.Rand, trial int) *model.Instance {
	n := 1 + rng.Intn(600)
	tl := make([]geo.Point, n)
	for i := range tl {
		switch trial % 5 {
		case 0:
			tl[i] = geo.Pt(rng.Float64()*200-100, rng.Float64()*200-100)
		case 1:
			if i%2 == 0 {
				tl[i] = geo.Pt(70+rng.Float64()*30, 70+rng.Float64()*30)
			} else {
				tl[i] = geo.Pt(rng.Float64()*200-100, rng.Float64()*200-100)
			}
		case 2:
			tl[i] = geo.Pt(float64(rng.Intn(13)-6)*4, float64(rng.Intn(13)-6)*4)
		case 3:
			k := float64(i % 7)
			tl[i] = geo.Pt(20*k-60+rng.Float64(), 15*k-45+rng.Float64())
		case 4:
			tl[i] = geo.Pt(rng.Float64()*160-80, 9)
		}
	}
	wl := make([]geo.Point, 1+rng.Intn(n/3+1))
	for i := range wl {
		wl[i] = geo.Pt(rng.Float64()*240-120, rng.Float64()*240-120)
	}
	in := centerScene(wl, tl, 1e9, 1)
	in.Speed = 1 + rng.Float64()*3
	if rng.Intn(2) == 0 {
		for i := range in.Tasks {
			in.Tasks[i].Expiry = 30 + rng.Float64()*250
		}
	}
	for i := range in.Workers {
		in.Workers[i].MaxT = rng.Intn(11)
	}
	if rng.Intn(5) == 0 {
		in.Centers[0].Loc = geo.Pt(300, -250)
	}
	return in
}

// poolTasks is the center's task list, or a random subset of it one time
// in four.
func poolTasks(rng *rand.Rand, in *model.Instance) []model.TaskID {
	ts := in.Centers[0].Tasks
	if rng.Intn(4) > 0 {
		return ts
	}
	var sub []model.TaskID
	for _, sid := range ts {
		if rng.Intn(2) == 0 {
			sub = append(sub, sid)
		}
	}
	return sub
}
