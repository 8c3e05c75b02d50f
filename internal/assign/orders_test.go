package assign

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"imtao/internal/geo"
	"imtao/internal/index"
	"imtao/internal/model"
	"imtao/internal/roadnet"
)

// orderScene builds a single-center instance whose task layout stresses one
// corner of the order table: uniform floats, a small integer lattice (many
// duplicate points and equal-distance ties), fewer tasks than a neighbour
// list holds, tight clusters of exactly one list's size (serving a cluster
// leaves its last task with an all-dead list), a line (a degenerate bounding
// box) and a single repeated point.
func orderScene(rng *rand.Rand, kind string) *model.Instance {
	var tl []geo.Point
	switch kind {
	case "uniform":
		for i := 0; i < 20+rng.Intn(200); i++ {
			tl = append(tl, geo.Pt(rng.Float64()*200-100, rng.Float64()*200-100))
		}
	case "lattice":
		for i := 0; i < 10+rng.Intn(80); i++ {
			tl = append(tl, geo.Pt(float64(rng.Intn(7)-3), float64(rng.Intn(7)-3)))
		}
	case "small":
		for i := 0; i < 1+rng.Intn(neighbourListLen-1); i++ {
			tl = append(tl, geo.Pt(float64(rng.Intn(9)-4), rng.Float64()*8-4))
		}
	case "clusters":
		for k := 0; k < 2+rng.Intn(5); k++ {
			cx, cy := rng.Float64()*160-80, rng.Float64()*160-80
			for i := 0; i < neighbourListLen; i++ {
				tl = append(tl, geo.Pt(cx+rng.Float64()*0.5, cy+rng.Float64()*0.5))
			}
		}
	case "line":
		for i := 0; i < 5+rng.Intn(60); i++ {
			tl = append(tl, geo.Pt(rng.Float64()*100, 7))
		}
	case "point":
		for i := 0; i < 1+rng.Intn(40); i++ {
			tl = append(tl, geo.Pt(3, -2))
		}
	}
	in := centerScene(nil, tl, 1e9, 1)
	in.EnsureHot()
	return in
}

var orderKinds = []string{"uniform", "lattice", "small", "clusters", "line", "point"}

// byDist sorts task ids by (squared distance from q, ID): the order every
// nearest-task query resolves against.
func byDist(in *model.Instance, q geo.Point, ids []model.TaskID) []model.TaskID {
	out := slices.Clone(ids)
	slices.SortFunc(out, func(a, b model.TaskID) int {
		da, db := q.Dist2(in.Tasks[a].Loc), q.Dist2(in.Tasks[b].Loc)
		if da != db {
			if da < db {
				return -1
			}
			return 1
		}
		return int(a - b)
	})
	return out
}

// TestTaskOrdersMatchBruteForce checks the built table against full sorts:
// the center order is the (d², ID) order from the center, and every task's
// list is the prefix of the (d², ID) order from it over the center's other
// tasks.
func TestTaskOrdersMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 120; trial++ {
		kind := orderKinds[trial%len(orderKinds)]
		in := orderScene(rng, kind)
		co := NewTaskOrders(in).center(0)
		c := in.Center(0)
		order := taskIDs(co.order)
		if want := byDist(in, c.Loc, c.Tasks); !slices.Equal(order, want) {
			t.Fatalf("%s trial %d: center order %v, want %v", kind, trial, order, want)
		}
		for r, sid := range order {
			if co.rank[sid] != int32(r) {
				t.Fatalf("%s trial %d: task %d has rank %d, want %d", kind, trial, sid, co.rank[sid], r)
			}
			others := slices.DeleteFunc(slices.Clone(c.Tasks), func(t model.TaskID) bool { return t == sid })
			want := byDist(in, in.Tasks[sid].Loc, others)[:co.width]
			got := make([]model.TaskID, co.width)
			for j, nr := range co.nbr[r*co.width : (r+1)*co.width] {
				got[j] = order[nr]
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s trial %d: task %d list %v, want %v", kind, trial, sid, got, want)
			}
		}
	}
}

// taskIDs converts a center order to task IDs.
func taskIDs(order []int32) []model.TaskID {
	out := make([]model.TaskID, len(order))
	for i, id := range order {
		out[i] = model.TaskID(id)
	}
	return out
}

// multiCenterScene builds nc centers scattered over ±100, each with a few
// workers and up to 120 tasks within ±10 of it, attached by construction
// (not by nearest center, so the centers' task boxes overlap).
func multiCenterScene(rng *rand.Rand, nc int) *model.Instance {
	in := &model.Instance{Speed: 1, Bounds: geo.NewRect(geo.Pt(-120, -120), geo.Pt(120, 120))}
	for ci := 0; ci < nc; ci++ {
		c := model.Center{ID: model.CenterID(ci), Loc: geo.Pt(rng.Float64()*200-100, rng.Float64()*200-100)}
		near := func() geo.Point { return geo.Pt(c.Loc.X+rng.Float64()*20-10, c.Loc.Y+rng.Float64()*20-10) }
		for i := 0; i < 1+rng.Intn(120); i++ {
			id := model.TaskID(len(in.Tasks))
			in.Tasks = append(in.Tasks, model.Task{ID: id, Center: c.ID, Expiry: 100, Reward: 1, Loc: near()})
			c.Tasks = append(c.Tasks, id)
		}
		for i := 0; i < 6+rng.Intn(10); i++ {
			id := model.WorkerID(len(in.Workers))
			in.Workers = append(in.Workers, model.Worker{ID: id, Home: c.ID, Loc: near(), MaxT: 3})
			c.Workers = append(c.Workers, id)
		}
		in.Centers = append(in.Centers, c)
	}
	return in
}

// samePart reports whether two parts hold the same center order, neighbour
// lists and ranks.
func samePart(a, b orderLists) bool {
	if !slices.Equal(a.order, b.order) || a.width != b.width || !slices.Equal(a.nbr, b.nbr) {
		return false
	}
	for _, id := range a.order {
		if a.rank[id] != b.rank[id] {
			return false
		}
	}
	return true
}

// TestTaskOrdersBuildMatchesLazy builds every center's part at once on
// several goroutines (GOMAXPROCS 4) and checks each against a part built on first use on
// a clone, whose task geometry is its own: the same center order,
// neighbour lists and ranks. Under -race it also checks that concurrent
// builds share nothing unsynchronized.
func TestTaskOrdersBuildMatchesLazy(t *testing.T) {
	in := multiCenterScene(rand.New(rand.NewSource(36)), 9)
	var centers []model.CenterID
	for ci := range in.Centers {
		centers = append(centers, model.CenterID(ci))
	}
	in.EnsureHot()
	built, lazy := NewTaskOrders(in), NewTaskOrders(in.Clone())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	built.Build(centers)
	for _, ci := range centers {
		b, l := &built.centers[ci], lazy.center(ci)
		if &b.order[0] == &l.order[0] {
			t.Fatalf("center %d: the two tables share one part", ci)
		}
		if !samePart(b.orderLists, l.orderLists) {
			t.Fatalf("center %d: built part differs from the lazily built one", ci)
		}
	}
}

// TestTaskGeometryConcurrentFirstUse builds one fresh instance's task
// geometry from several goroutines at once — phase-1 runs, which sort the
// center orders, racing tables, which also build the lists — and checks
// that all of them got one geometry, equal part for part to one built
// alone on a clone. Run under -race it checks the first use is
// synchronized.
func TestTaskGeometryConcurrentFirstUse(t *testing.T) {
	in := multiCenterScene(rand.New(rand.NewSource(37)), 12)
	in.EnsureHot()
	want := make([]Result, len(in.Centers))
	ref := in.Clone()
	for ci := range ref.Centers {
		c := ref.Center(model.CenterID(ci))
		want[ci] = Sequential(ref, c, c.Workers, c.Tasks)
	}
	var centers []model.CenterID
	for ci := range in.Centers {
		centers = append(centers, model.CenterID(ci))
	}
	tables := make([]*TaskOrders, 4)
	errs := make(chan string, 2*len(tables))
	var wg sync.WaitGroup
	for g := range tables {
		wg.Add(2)
		go func() {
			defer wg.Done()
			tables[g] = NewTaskOrders(in)
			tables[g].Build(centers)
		}()
		go func() {
			defer wg.Done()
			for k := range in.Centers {
				ci := (k + 3*g) % len(in.Centers)
				c := in.Center(model.CenterID(ci))
				if got := Sequential(in, c, c.Workers, c.Tasks); !reflect.DeepEqual(got, want[ci]) {
					errs <- "phase-1 result differs from the clone's"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	alone := NewTaskOrders(ref)
	for _, ci := range centers {
		part := tables[0].center(ci).orderLists
		for _, o := range tables[1:] {
			if &o.center(ci).order[0] != &part.order[0] {
				t.Fatalf("center %d: two tables got different parts of one geometry", ci)
			}
		}
		if !samePart(part, alone.center(ci).orderLists) {
			t.Fatalf("center %d: part differs from one built alone", ci)
		}
	}
}

// TestOrderPoolNearestMatchesLinear drives the trial pool through random
// start states and removal sequences and checks every query against a
// linear scan of the live tasks — same task, ties to the smaller ID — and
// the returned travel time against the metric, bit for bit. Queries start
// at the center or at any of the center's tasks, live or dead. Removals
// mostly take the answer, as a serving worker does, so cluster scenes walk
// off the end of their lists and exercise the fallback. Each scene runs
// three rounds across the stamp epoch's wrap.
func TestOrderPoolNearestMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	fallbacks := map[string]int64{}
	for trial := 0; trial < 180; trial++ {
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
		th := in.HotTasks()
		var pool []model.TaskID
		for _, sid := range c.Tasks {
			if rng.Intn(4) > 0 {
				pool = append(pool, sid)
			}
		}
		var b TrialBase
		if !b.Reset(NewTaskOrders(in), c, nil, nil, pool) {
			t.Fatalf("%s trial %d: Reset rejected the center's own tasks", kind, trial)
		}
		p := &b.NewRunner().pool
		// Start near the top of the epoch range so the later rounds cross
		// the wrap, where start re-copies the base stamps.
		p.epoch = math.MaxUint32 - 2
		for round := 0; round < 3; round++ {
			p.start()
			live := make([]index.Item, len(pool))
			for i, sid := range pool {
				live[i] = index.Item{ID: int(sid), Point: th[sid].Loc}
			}
			last := model.TaskID(-1)
			for {
				from := last
				switch rng.Intn(5) {
				case 0:
					from = -1
				case 1:
					from = c.Tasks[rng.Intn(len(c.Tasks))]
				}
				q, qRef := c.Loc, in.CenterRef(0)
				if from >= 0 {
					q, qRef = th[from].Loc, th[from].Ref
				}
				got, tt, ok := p.nearest(q, qRef, from)
				want, wok := index.LinearNearest(live, q, nil)
				if ok != wok || (ok && int(got) != want.ID) {
					t.Fatalf("%s trial %d: nearest from %d = %d/%v, want %d/%v",
						kind, trial, from, got, ok, want.ID, wok)
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
				}
				p.remove(victim)
				i := slices.IndexFunc(live, func(it index.Item) bool { return it.ID == int(victim) })
				live = slices.Delete(live, i, i+1)
				if p.len() != len(live) {
					t.Fatalf("%s trial %d: pool len %d, want %d", kind, trial, p.len(), len(live))
				}
				last = victim
			}
			fallbacks[kind] += p.fallbacks
		}
	}
	if fallbacks["clusters"] == 0 {
		t.Fatal("cluster scenes never exercised the fallback scan")
	}
}

// TestTrialBaseRejectsForeignPool: a start state holding a task the table
// does not list for the center makes Reset report ok=false, so callers run
// full trials instead.
func TestTrialBaseRejectsForeignPool(t *testing.T) {
	in := orderScene(rand.New(rand.NewSource(33)), "uniform")
	in.Tasks = append(in.Tasks, model.Task{ID: model.TaskID(len(in.Tasks)), Center: model.NoCenter,
		Loc: geo.Pt(1, 1), Expiry: 1e9})
	in.EnsureHot()
	foreign := model.TaskID(len(in.Tasks) - 1)
	var b TrialBase
	if b.Reset(NewTaskOrders(in), in.Center(0), nil, nil, []model.TaskID{0, foreign}) {
		t.Fatal("Reset accepted a task outside the center")
	}
	if !b.Reset(NewTaskOrders(in), in.Center(0), nil, nil, in.Centers[0].Tasks) {
		t.Fatal("Reset rejected the center's own tasks")
	}
}

// clusterScene is a center whose tasks sit in tight clusters of exactly one
// neighbour list's size, served by high-capacity workers: a worker that
// finishes a cluster queries from a task whose list is all dead, so trials
// go through the fallback scan.
func clusterScene(rng *rand.Rand) *model.Instance {
	var wl, tl []geo.Point
	for i := 0; i < 3+rng.Intn(6); i++ {
		wl = append(wl, geo.Pt(rng.Float64()*40-20, rng.Float64()*40-20))
	}
	for k := 0; k < 3+rng.Intn(4); k++ {
		cx, cy := rng.Float64()*160-80, rng.Float64()*160-80
		for i := 0; i < neighbourListLen; i++ {
			tl = append(tl, geo.Pt(cx+rng.Float64(), cy+rng.Float64()))
		}
	}
	return centerScene(wl, tl, 200+rng.Float64()*400, neighbourListLen+1+rng.Intn(20))
}

// TestTrialMatchesFullRunFallback repeats the trial equivalence property on
// cluster scenes, where the fallback scan answers part of the queries.
func TestTrialMatchesFullRunFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	before := mNearestFallbacks.Value()
	for trial := 0; trial < 30; trial++ {
		in := clusterScene(rng)
		all := in.Centers[0].Workers
		checkTrialMatchesFull(t, in, trial, all[:rng.Intn(len(all))])
	}
	if mNearestFallbacks.Value() == before {
		t.Fatal("no trial took the fallback scan")
	}
}

// TestTravelMemoConcurrentRoadNetwork runs trials on several centers at
// once over one shared table on a road network, one goroutine per center —
// the sharded engine's pattern, where concurrent shard games hold disjoint
// centers. Every trial must equal the full Sequential run, and every memo
// slot the runners filled must hold exactly the metric's travel time. Run
// under -race it also checks that binding the centers and filling their
// slots share nothing unsynchronized.
func TestTravelMemoConcurrentRoadNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 6; trial++ {
		in := multiCenterScene(rng, 4)
		for i := range in.Workers {
			in.Workers[i].MaxT = 3 + rng.Intn(6)
		}
		for i := range in.Tasks {
			in.Tasks[i].Expiry = 10 + rng.Float64()*40
		}
		net, err := roadnet.New(in.Bounds, 24, 24, in.Speed)
		if err != nil {
			t.Fatal(err)
		}
		net.SetCongestion(geo.Pt(rng.Float64()*200-100, rng.Float64()*200-100), 1+rng.Float64()*3)
		in.Metric = net
		in.PrepareMetric()
		in.EnsureHot()
		o := NewTaskOrders(in)
		var wg sync.WaitGroup
		errs := make(chan string, len(in.Centers))
		for ci := range in.Centers {
			c := in.Center(model.CenterID(ci))
			all := c.Workers
			base, cands := all[:len(all)/3], all[len(all)/3:]
			baseline := Sequential(in, c, base, c.Tasks)
			want := make([]Result, len(cands))
			for i, w := range cands {
				want[i] = normalizeResult(Sequential(in, c, append(slices.Clone(base), w), c.Tasks))
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				tb, ok := NewTrialBase(o, c, base, baseline.Routes, baseline.LeftTasks)
				if !ok {
					errs <- "NewTrialBase rejected a genuine Sequential baseline"
					return
				}
				r := tb.NewRunner()
				for i, w := range cands {
					if got := normalizeResult(r.Trial(w)); !reflect.DeepEqual(got, want[i]) {
						errs <- "trial differs from the full run"
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatalf("trial %d: %s", trial, e)
		}
		th := in.HotTasks()
		check := func(slot uint64, from geo.Point, fromRef model.NodeRef, to model.TaskID) {
			if slot == 0 {
				return
			}
			want := in.TravelTimeRef(from, fromRef, th[to].Loc, th[to].Ref)
			if math.Float64frombits(^slot) != want || ^slot != math.Float64bits(want) {
				t.Fatalf("trial %d: memo holds %v, metric says %v", trial, math.Float64frombits(^slot), want)
			}
		}
		filled := 0
		for ci := range in.Centers {
			c := in.Center(model.CenterID(ci))
			co := o.center(c.ID)
			for r, id := range co.order {
				sid := model.TaskID(id)
				check(co.ctt[r], c.Loc, in.CenterRef(c.ID), sid)
				for j := 0; j < co.width; j++ {
					slot := co.ntt[r*co.width+j]
					if slot != 0 {
						filled++
					}
					check(slot, th[sid].Loc, th[sid].Ref, model.TaskID(co.order[co.nbr[r*co.width+j]]))
				}
				if fb := co.fb[r]; fb.r > 0 {
					to := model.TaskID(co.order[fb.r-1])
					if want := in.TravelTimeRef(th[sid].Loc, th[sid].Ref, th[to].Loc, th[to].Ref); fb.tt != want {
						t.Fatalf("trial %d: fallback memo holds %v, metric says %v", trial, fb.tt, want)
					}
				}
			}
		}
		if filled == 0 {
			t.Fatalf("trial %d: no neighbour-list memo slot was filled", trial)
		}
	}
}
