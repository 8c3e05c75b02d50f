package assign

import (
	"math/rand"
	"reflect"
	"testing"

	"imtao/internal/geo"
	"imtao/internal/model"
	"imtao/internal/routing"
)

func TestOptimalBasic(t *testing.T) {
	in := centerScene(
		[]geo.Point{geo.Pt(0, 0)},
		[]geo.Point{geo.Pt(1, 0), geo.Pt(2, 0), geo.Pt(3, 0)},
		100, 4,
	)
	ws, ts := allIDs(in)
	res := Optimal(in, in.Center(0), ws, ts)
	if got := res.AssignedCount(); got != 3 {
		t.Fatalf("assigned %d, want 3", got)
	}
	if err := feasibleResult(in, &res); err != "" {
		t.Fatal(err)
	}
}

func TestOptimalBeatsGreedyWhenGreedyTrapsItself(t *testing.T) {
	// Greedy nearest-first can waste the only worker's capacity on close
	// tasks and strand an urgent far one. Layout: two near tasks with loose
	// deadlines, one far task whose deadline only allows going there first.
	in := centerScene(
		[]geo.Point{geo.Pt(0, 0)},
		[]geo.Point{geo.Pt(1, 0), geo.Pt(2, 0), geo.Pt(10, 0)},
		100, 4,
	)
	in.Tasks[2].Expiry = 10.5 // reachable only near-directly
	ws, ts := allIDs(in)
	seq := Sequential(in, in.Center(0), ws, ts)
	opt := Optimal(in, in.Center(0), ws, ts)
	if opt.AssignedCount() < 3 {
		t.Fatalf("optimal must assign all 3, got %d", opt.AssignedCount())
	}
	if seq.AssignedCount() > opt.AssignedCount() {
		t.Fatalf("greedy %d beats optimal %d?!", seq.AssignedCount(), opt.AssignedCount())
	}
	if err := feasibleResult(in, &opt); err != "" {
		t.Fatal(err)
	}
}

func TestOptimalEmpty(t *testing.T) {
	in := centerScene([]geo.Point{geo.Pt(0, 0)}, []geo.Point{geo.Pt(1, 0)}, 100, 4)
	res := Optimal(in, in.Center(0), nil, in.Centers[0].Tasks)
	if res.AssignedCount() != 0 || len(res.LeftTasks) != 1 {
		t.Fatal("no workers")
	}
	res = Optimal(in, in.Center(0), in.Centers[0].Workers, nil)
	if res.AssignedCount() != 0 || len(res.LeftWorkers) != 1 {
		t.Fatal("no tasks")
	}
}

func TestOptimalConflictResolution(t *testing.T) {
	// Two workers, two tasks in opposite directions with tight deadlines so
	// each worker can serve at most one. Optimal must split them.
	in := centerScene(
		[]geo.Point{geo.Pt(0, 0), geo.Pt(0, 0)},
		[]geo.Point{geo.Pt(5, 0), geo.Pt(-5, 0)},
		5.5, 4,
	)
	ws, ts := allIDs(in)
	res := Optimal(in, in.Center(0), ws, ts)
	if got := res.AssignedCount(); got != 2 {
		t.Fatalf("assigned %d, want 2", got)
	}
	if len(res.Routes) != 2 {
		t.Fatalf("want both workers used, got %d routes", len(res.Routes))
	}
}

// Property: Optimal is never worse than Sequential, always feasible, and
// matches a brute-force reference on tiny instances.
func TestOptimalDominatesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		nw, nt := 1+rng.Intn(3), 1+rng.Intn(7)
		wl := make([]geo.Point, nw)
		tl := make([]geo.Point, nt)
		for i := range wl {
			wl[i] = geo.Pt(rng.Float64()*60-30, rng.Float64()*60-30)
		}
		for i := range tl {
			tl[i] = geo.Pt(rng.Float64()*60-30, rng.Float64()*60-30)
		}
		in := centerScene(wl, tl, 20+rng.Float64()*60, 1+rng.Intn(3))
		ws, ts := allIDs(in)
		seq := Sequential(in, in.Center(0), ws, ts)
		opt := Optimal(in, in.Center(0), ws, ts)
		if opt.AssignedCount() < seq.AssignedCount() {
			t.Fatalf("trial %d: optimal %d < sequential %d", trial, opt.AssignedCount(), seq.AssignedCount())
		}
		if err := feasibleResult(in, &opt); err != "" {
			t.Fatalf("trial %d: %s", trial, err)
		}
	}
}

func TestOptimalStepBudgetStillReturnsSolution(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	wl := make([]geo.Point, 6)
	tl := make([]geo.Point, 24)
	for i := range wl {
		wl[i] = geo.Pt(rng.Float64()*40, rng.Float64()*40)
	}
	for i := range tl {
		tl[i] = geo.Pt(rng.Float64()*40, rng.Float64()*40)
	}
	in := centerScene(wl, tl, 1000, 4)
	ws, ts := allIDs(in)
	res := OptimalOpt(in, in.Center(0), ws, ts, OptimalOptions{Budget: 1000})
	if err := feasibleResult(in, &res); err != "" {
		t.Fatal(err)
	}
	if res.AssignedCount() == 0 {
		t.Fatal("budgeted run should still assign something")
	}
	// Every extension tried is one step: the enumeration used its half.
	if res.Stats.TasksScanned != 500 {
		t.Fatalf("enumeration tried %d extensions, want the budget's half (500)", res.Stats.TasksScanned)
	}
	if again := OptimalOpt(in, in.Center(0), ws, ts, OptimalOptions{Budget: 1000}); !reflect.DeepEqual(res, again) {
		t.Fatal("the same budget gave a different result")
	}
}

func TestOptimalDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	wl := make([]geo.Point, 3)
	tl := make([]geo.Point, 8)
	for i := range wl {
		wl[i] = geo.Pt(rng.Float64()*50, rng.Float64()*50)
	}
	for i := range tl {
		tl[i] = geo.Pt(rng.Float64()*50, rng.Float64()*50)
	}
	in := centerScene(wl, tl, 200, 3)
	ws, ts := allIDs(in)
	a := Optimal(in, in.Center(0), ws, ts)
	b := Optimal(in, in.Center(0), ws, ts)
	if a.AssignedCount() != b.AssignedCount() || len(a.Routes) != len(b.Routes) {
		t.Fatal("Optimal is not deterministic")
	}
	for i := range a.Routes {
		if a.Routes[i].Worker != b.Routes[i].Worker {
			t.Fatal("route order differs between runs")
		}
	}
}

// feasibleResult checks route feasibility, task uniqueness and conservation.
func feasibleResult(in *model.Instance, res *Result) string {
	seen := map[model.TaskID]bool{}
	for _, r := range res.Routes {
		w := in.Worker(r.Worker)
		c := in.Center(r.Center)
		if !routing.OrderFeasible(in, w, c, r.Tasks) {
			return "infeasible route"
		}
		for _, id := range r.Tasks {
			if seen[id] {
				return "task assigned twice"
			}
			seen[id] = true
		}
	}
	return ""
}

func BenchmarkSequential100Tasks(b *testing.B) {
	rng := rand.New(rand.NewSource(44))
	wl := make([]geo.Point, 10)
	tl := make([]geo.Point, 100)
	for i := range wl {
		wl[i] = geo.Pt(rng.Float64()*500, rng.Float64()*500)
	}
	for i := range tl {
		tl[i] = geo.Pt(rng.Float64()*500, rng.Float64()*500)
	}
	in := centerScene(wl, tl, 2000, 4)
	ws, ts := allIDs(in)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sequential(in, in.Center(0), ws, ts)
	}
}

func BenchmarkOptimal12Tasks(b *testing.B) {
	rng := rand.New(rand.NewSource(45))
	wl := make([]geo.Point, 3)
	tl := make([]geo.Point, 12)
	for i := range wl {
		wl[i] = geo.Pt(rng.Float64()*50, rng.Float64()*50)
	}
	for i := range tl {
		tl[i] = geo.Pt(rng.Float64()*50, rng.Float64()*50)
	}
	in := centerScene(wl, tl, 200, 4)
	ws, ts := allIDs(in)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Optimal(in, in.Center(0), ws, ts)
	}
}

func TestOptimalTinyBudgetStillUsesAllWorkers(t *testing.T) {
	// With an extremely tight budget the enumeration expires almost
	// immediately; the singleton fallback must still let every worker take
	// a task when tasks are plentiful and reachable.
	rng := rand.New(rand.NewSource(46))
	wl := make([]geo.Point, 5)
	tl := make([]geo.Point, 40)
	for i := range wl {
		wl[i] = geo.Pt(rng.Float64()*20, rng.Float64()*20)
	}
	for i := range tl {
		tl[i] = geo.Pt(rng.Float64()*20, rng.Float64()*20)
	}
	in := centerScene(wl, tl, 1e6, 4)
	ws, ts := allIDs(in)
	res := OptimalOpt(in, in.Center(0), ws, ts, OptimalOptions{Budget: 2})
	if err := feasibleResult(in, &res); err != "" {
		t.Fatal(err)
	}
	if res.AssignedCount() < len(ws) {
		t.Fatalf("assigned %d with %d workers; singleton fallback failed", res.AssignedCount(), len(ws))
	}
}
