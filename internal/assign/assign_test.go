package assign

import (
	"math/rand"
	"reflect"
	"testing"

	"imtao/internal/geo"
	"imtao/internal/model"
	"imtao/internal/routing"
)

// centerScene builds a single-center instance with the given worker and task
// locations, uniform expiry and capacity, speed 1.
func centerScene(workerLocs, taskLocs []geo.Point, expiry float64, maxT int) *model.Instance {
	in := &model.Instance{
		Centers: []model.Center{{ID: 0, Loc: geo.Pt(0, 0)}},
		Speed:   1,
		Bounds:  geo.NewRect(geo.Pt(-1000, -1000), geo.Pt(1000, 1000)),
	}
	for i, l := range taskLocs {
		in.Tasks = append(in.Tasks, model.Task{ID: model.TaskID(i), Center: 0, Loc: l, Expiry: expiry, Reward: 1})
		in.Centers[0].Tasks = append(in.Centers[0].Tasks, model.TaskID(i))
	}
	for i, l := range workerLocs {
		in.Workers = append(in.Workers, model.Worker{ID: model.WorkerID(i), Home: 0, Loc: l, MaxT: maxT})
		in.Centers[0].Workers = append(in.Centers[0].Workers, model.WorkerID(i))
	}
	return in
}

func allIDs(in *model.Instance) ([]model.WorkerID, []model.TaskID) {
	return in.Centers[0].Workers, in.Centers[0].Tasks
}

func TestSequentialBasic(t *testing.T) {
	// One worker at the center, tasks strung to the right within reach.
	in := centerScene(
		[]geo.Point{geo.Pt(0, 0)},
		[]geo.Point{geo.Pt(1, 0), geo.Pt(2, 0), geo.Pt(3, 0)},
		100, 4,
	)
	ws, ts := allIDs(in)
	res := Sequential(in, in.Center(0), ws, ts)
	if got := res.AssignedCount(); got != 3 {
		t.Fatalf("assigned %d, want 3", got)
	}
	if len(res.LeftWorkers) != 0 || len(res.LeftTasks) != 0 {
		t.Fatalf("leftovers: workers %v tasks %v", res.LeftWorkers, res.LeftTasks)
	}
	// Nearest-first greedy on a line must be the sweep 0,1,2.
	want := []model.TaskID{0, 1, 2}
	for i, id := range res.Routes[0].Tasks {
		if id != want[i] {
			t.Fatalf("route = %v, want %v", res.Routes[0].Tasks, want)
		}
	}
}

func TestSequentialCapacity(t *testing.T) {
	in := centerScene(
		[]geo.Point{geo.Pt(0, 0)},
		[]geo.Point{geo.Pt(1, 0), geo.Pt(2, 0), geo.Pt(3, 0)},
		100, 2,
	)
	ws, ts := allIDs(in)
	res := Sequential(in, in.Center(0), ws, ts)
	if got := res.AssignedCount(); got != 2 {
		t.Fatalf("assigned %d, want 2 (capacity)", got)
	}
	if len(res.LeftTasks) != 1 || res.LeftTasks[0] != 2 {
		t.Fatalf("left tasks = %v, want [2]", res.LeftTasks)
	}
}

func TestSequentialDeadline(t *testing.T) {
	// Expiry 2.5: worker can reach task 0 (t=1) and task 1 (t=2) but not 2 (t=3).
	in := centerScene(
		[]geo.Point{geo.Pt(0, 0)},
		[]geo.Point{geo.Pt(1, 0), geo.Pt(2, 0), geo.Pt(3, 0)},
		2.5, 4,
	)
	ws, ts := allIDs(in)
	res := Sequential(in, in.Center(0), ws, ts)
	if got := res.AssignedCount(); got != 2 {
		t.Fatalf("assigned %d, want 2 (deadline)", got)
	}
}

func TestSequentialUnusedWorker(t *testing.T) {
	// Worker so far away that the pick-up alone exceeds every deadline.
	in := centerScene(
		[]geo.Point{geo.Pt(500, 0)},
		[]geo.Point{geo.Pt(1, 0)},
		2, 4,
	)
	ws, ts := allIDs(in)
	res := Sequential(in, in.Center(0), ws, ts)
	if res.AssignedCount() != 0 {
		t.Fatal("nothing should be assignable")
	}
	if len(res.LeftWorkers) != 1 || res.LeftWorkers[0] != 0 {
		t.Fatalf("left workers = %v", res.LeftWorkers)
	}
	if len(res.LeftTasks) != 1 {
		t.Fatalf("left tasks = %v", res.LeftTasks)
	}
}

func TestSequentialMarginalFirst(t *testing.T) {
	// Two workers: w0 at the center, w1 far away. One task reachable only if
	// the far (marginal) worker gets it first... actually the marginal worker
	// has LESS slack; the paper gives marginal workers first pick so they are
	// not left idle. Construct: one task, deadline tight enough that only
	// quick service works; both workers could serve it, but marginal-first
	// gives it to w1.
	in := centerScene(
		[]geo.Point{geo.Pt(0, 0), geo.Pt(5, 0)},
		[]geo.Point{geo.Pt(1, 0)},
		10, 4,
	)
	ws, ts := allIDs(in)
	res := Sequential(in, in.Center(0), ws, ts)
	if res.AssignedCount() != 1 {
		t.Fatalf("assigned %d, want 1", res.AssignedCount())
	}
	if res.Routes[0].Worker != 1 {
		t.Fatalf("marginal worker 1 should get the task, got worker %d", res.Routes[0].Worker)
	}
	// NearestFirst flips the choice.
	res = SequentialOpt(in, in.Center(0), ws, ts, Options{Order: NearestFirst})
	if res.Routes[0].Worker != 0 {
		t.Fatalf("nearest-first should give the task to worker 0, got %d", res.Routes[0].Worker)
	}
}

func TestSequentialEmptyInputs(t *testing.T) {
	in := centerScene([]geo.Point{geo.Pt(0, 0)}, []geo.Point{geo.Pt(1, 0)}, 100, 4)
	res := Sequential(in, in.Center(0), nil, in.Centers[0].Tasks)
	if res.AssignedCount() != 0 || len(res.LeftTasks) != 1 {
		t.Fatal("no workers: everything left")
	}
	res = Sequential(in, in.Center(0), in.Centers[0].Workers, nil)
	if res.AssignedCount() != 0 || len(res.LeftWorkers) != 1 {
		t.Fatal("no tasks: worker left")
	}
}

func TestSequentialZeroCapacityWorker(t *testing.T) {
	in := centerScene([]geo.Point{geo.Pt(0, 0)}, []geo.Point{geo.Pt(1, 0)}, 100, 0)
	ws, ts := allIDs(in)
	res := Sequential(in, in.Center(0), ws, ts)
	if res.AssignedCount() != 0 || len(res.LeftWorkers) != 1 {
		t.Fatalf("zero-capacity worker must stay unused: %+v", res)
	}
}

// Property: sequential routes always satisfy the VTDS conditions and never
// assign a task twice.
func TestSequentialRoutesAlwaysFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		nw, nt := 1+rng.Intn(8), 1+rng.Intn(30)
		wl := make([]geo.Point, nw)
		tl := make([]geo.Point, nt)
		for i := range wl {
			wl[i] = geo.Pt(rng.Float64()*200-100, rng.Float64()*200-100)
		}
		for i := range tl {
			tl[i] = geo.Pt(rng.Float64()*200-100, rng.Float64()*200-100)
		}
		in := centerScene(wl, tl, 50+rng.Float64()*200, 1+rng.Intn(5))
		ws, ts := allIDs(in)
		res := Sequential(in, in.Center(0), ws, ts)
		seen := map[model.TaskID]bool{}
		for _, r := range res.Routes {
			w := in.Worker(r.Worker)
			if !routing.OrderFeasible(in, w, in.Center(0), r.Tasks) {
				t.Fatalf("trial %d: infeasible route %v", trial, r)
			}
			for _, id := range r.Tasks {
				if seen[id] {
					t.Fatalf("trial %d: task %d assigned twice", trial, id)
				}
				seen[id] = true
			}
		}
		if len(seen)+len(res.LeftTasks) != nt {
			t.Fatalf("trial %d: task conservation broken: %d+%d != %d",
				trial, len(seen), len(res.LeftTasks), nt)
		}
		if len(res.Routes)+len(res.LeftWorkers) != nw {
			t.Fatalf("trial %d: worker conservation broken", trial)
		}
	}
}

// Property: the cell pool and the linear-scan pool give identical results —
// routes, leftover workers and tasks, and the Stats work profile — under
// all four worker orders, on 600 instances of up to ~600 tasks.
func TestSequentialIndexAblationAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 600; trial++ {
		in := poolScene(rng, trial)
		c := in.Center(0)
		ts := poolTasks(rng, in)
		for _, order := range []WorkerOrder{MarginalFirst, NearestFirst, ByID, RandomOrder} {
			a := SequentialOpt(in, c, c.Workers, ts, Options{Order: order, Rng: rand.New(rand.NewSource(int64(trial)))})
			b := SequentialOpt(in, c, c.Workers, ts, Options{Order: order, Rng: rand.New(rand.NewSource(int64(trial))), LinearScan: true})
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("trial %d order %d:\n cells  %+v\n linear %+v", trial, order, a, b)
			}
		}
	}
}

func TestSequentialDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	wl := make([]geo.Point, 6)
	tl := make([]geo.Point, 20)
	for i := range wl {
		wl[i] = geo.Pt(rng.Float64()*100, rng.Float64()*100)
	}
	for i := range tl {
		tl[i] = geo.Pt(rng.Float64()*100, rng.Float64()*100)
	}
	in := centerScene(wl, tl, 500, 4)
	ws, ts := allIDs(in)
	a := Sequential(in, in.Center(0), ws, ts)
	b := Sequential(in, in.Center(0), ws, ts)
	if a.AssignedCount() != b.AssignedCount() || len(a.Routes) != len(b.Routes) {
		t.Fatal("Sequential is not deterministic")
	}
}

func TestSequentialRandomOrder(t *testing.T) {
	in := centerScene(
		[]geo.Point{geo.Pt(0, 1), geo.Pt(1, 0), geo.Pt(2, 2)},
		[]geo.Point{geo.Pt(3, 0), geo.Pt(0, 3), geo.Pt(4, 4)},
		100, 1,
	)
	ws, ts := allIDs(in)
	// Nil Rng falls back to a fixed seed: deterministic.
	a := SequentialOpt(in, in.Center(0), ws, ts, Options{Order: RandomOrder})
	b := SequentialOpt(in, in.Center(0), ws, ts, Options{Order: RandomOrder})
	if a.AssignedCount() != b.AssignedCount() {
		t.Fatal("nil-rng random order must be deterministic")
	}
	// Seeded Rng reproduces.
	c := SequentialOpt(in, in.Center(0), ws, ts, Options{Order: RandomOrder, Rng: rand.New(rand.NewSource(5))})
	d := SequentialOpt(in, in.Center(0), ws, ts, Options{Order: RandomOrder, Rng: rand.New(rand.NewSource(5))})
	if c.AssignedCount() != d.AssignedCount() || len(c.Routes) != len(d.Routes) {
		t.Fatal("seeded random order must reproduce")
	}
	// Everything reachable still gets assigned (capacity 1 each, 3 tasks).
	if a.AssignedCount() != 3 {
		t.Fatalf("assigned %d, want 3", a.AssignedCount())
	}
}
