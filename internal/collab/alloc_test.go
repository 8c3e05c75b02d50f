package collab

import (
	"math/rand"
	"runtime"
	"testing"

	"imtao/internal/assign"
	"imtao/internal/geo"
	"imtao/internal/model"
	"imtao/internal/provenance"
)

// The zero-allocation gates of DESIGN.md §13: a warmed-up serial game
// iteration, and the trial engine's rebind/trial cycle, must not touch the
// heap. The protocol mirrors real steady state — warm the engine until its
// recycled buffers reach high-water capacity, reserve the per-iteration
// output tail, then meter with testing.AllocsPerRun.

// skewedInstance builds an instance with a long collaboration game: one
// rich center holding a large spare workforce next to several task-heavy
// starved centers. Every spare worker has MaxT 1, so each accepted dispatch
// raises the recipient's assigned count by exactly one — the game runs for
// roughly one iteration per spare worker, giving the metering loop a long
// accepted-iteration steady state (random balanced instances converge in a
// handful of iterations).
func skewedInstance(spare int) *model.Instance {
	rng := rand.New(rand.NewSource(42))
	in := &model.Instance{
		Speed:  1,
		Bounds: geo.NewRect(geo.Pt(0, 0), geo.Pt(100, 100)),
	}
	addCenter := func(x, y float64) model.CenterID {
		id := model.CenterID(len(in.Centers))
		in.Centers = append(in.Centers, model.Center{ID: id, Loc: geo.Pt(x, y)})
		return id
	}
	addTask := func(c model.CenterID, x, y float64) {
		id := model.TaskID(len(in.Tasks))
		in.Tasks = append(in.Tasks, model.Task{ID: id, Center: c, Loc: geo.Pt(x, y), Expiry: 1e4, Reward: 1})
		in.Centers[c].Tasks = append(in.Centers[c].Tasks, id)
	}
	addWorker := func(c model.CenterID, x, y float64) {
		id := model.WorkerID(len(in.Workers))
		in.Workers = append(in.Workers, model.Worker{ID: id, Home: c, Loc: geo.Pt(x, y), MaxT: 1})
		in.Centers[c].Workers = append(in.Centers[c].Workers, id)
	}
	rich := addCenter(50, 50)
	for i := 0; i < spare+5; i++ {
		addWorker(rich, 45+10*rng.Float64(), 45+10*rng.Float64())
	}
	for i := 0; i < 5; i++ {
		addTask(rich, 45+10*rng.Float64(), 45+10*rng.Float64())
	}
	corners := [][2]float64{{15, 15}, {85, 15}, {15, 85}, {85, 85}}
	for _, xy := range corners {
		c := addCenter(xy[0], xy[1])
		for i := 0; i < 2; i++ {
			addWorker(c, xy[0]+5*rng.Float64(), xy[1]+5*rng.Float64())
		}
		for i := 0; i < spare; i++ {
			addTask(c, xy[0]-5+10*rng.Float64(), xy[1]-5+10*rng.Float64())
		}
	}
	return in
}

// steadyGame builds a game big enough to have a long accepted-iteration
// steady state, warms it, and returns it ready for metering.
func steadyGame(t *testing.T, cfg Config) *Game {
	t.Helper()
	in := skewedInstance(200)
	p1 := phase1(in)
	g := NewGame(in, p1, cfg)
	// Warm until the per-center promotion buffers, the trial base, the
	// runner arenas and the pool scratch have all hit their high-water
	// marks; the residual growth events (a borrowed worker pushing a
	// sorted set past its capacity) die out after the first stretch of
	// accepted iterations.
	for i := 0; i < 120; i++ {
		if !g.Step() {
			t.Fatalf("game over after %d iterations — instance too small to meter", i)
		}
	}
	return g
}

func TestGameStepSteadyStateZeroAlloc(t *testing.T) {
	g := steadyGame(t, Config{Scope: FullReassign, Assigner: assign.Sequential})
	const runs = 30
	g.Reserve(runs + 2)
	allocs := testing.AllocsPerRun(runs, func() {
		if !g.Step() {
			t.Fatalf("game ended mid-measurement")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state game iteration allocates: %.2f allocs/iter (want 0)", allocs)
	}
}

// TestGameStepParallelZeroAlloc extends the gate to a game set up at
// GOMAXPROCS 2, whose order-table prebuild runs on two goroutines: a
// steady-state step allocates nothing at any setting.
func TestGameStepParallelZeroAlloc(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	g := steadyGame(t, Config{Scope: FullReassign, Assigner: assign.Sequential})
	runtime.GOMAXPROCS(prev)
	defer g.Finish()
	const runs = 30
	g.Reserve(runs + 2)
	allocs := testing.AllocsPerRun(runs, func() {
		if !g.Step() {
			t.Fatalf("game ended mid-measurement")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state parallel game iteration allocates: %.2f allocs/iter (want 0)", allocs)
	}
}

// TestTrialRunnerRebindTrialZeroAlloc pins the per-iteration trial cycle of
// the resume engine: Reset the base on the center's current assignment,
// Rebind the persistent runner, run a head and a trial. After warm-up the
// whole cycle is allocation-free — every result slice comes from the
// runner's arenas.
func TestTrialRunnerRebindTrialZeroAlloc(t *testing.T) {
	in := seededInstance(9, 4, 120, 1200)
	in.PrepareMetric()
	center := in.Center(0)
	baseline := assign.Sequential(in, center, center.Workers, center.Tasks)
	base, ok := assign.NewTrialBase(assign.NewTaskOrders(in), center, center.Workers, baseline.Routes, baseline.LeftTasks)
	if !ok {
		t.Fatal("baseline does not line up with the serve order")
	}
	// A candidate homed elsewhere, so it is not in the baseline worker set.
	var cand model.WorkerID = -1
	for _, w := range in.Centers[1].Workers {
		cand = w
		break
	}
	if cand < 0 {
		t.Fatal("no foreign candidate available")
	}
	runner := base.NewRunner()
	for i := 0; i < 3; i++ { // grow arenas and the pool stamps to high water
		runner.Rebind(base)
		runner.Head(cand)
		runner.Trial(cand)
	}
	allocs := testing.AllocsPerRun(50, func() {
		runner.Rebind(base)
		key := runner.Head(cand)
		r := runner.Trial(cand)
		if r.AssignedCount() < int(key.Len) {
			t.Fatal("the trial assigns fewer tasks than the candidate's own route")
		}
	})
	if allocs != 0 {
		t.Fatalf("trial rebind+resume cycle allocates: %.2f allocs (want 0)", allocs)
	}
}

// TestGameStepProvenanceBoundedAlloc pins the enabled-path recording cost:
// with a decision ledger attached, a warmed steady-state iteration may only
// touch the heap for the ledger's own amortized arena growth — a small
// constant per iteration on average, not per trial (the per-candidate
// TrialRec and route-task payloads land in geometrically grown slabs).
func TestGameStepProvenanceBoundedAlloc(t *testing.T) {
	led := provenance.NewLedger()
	cfg := Config{Scope: FullReassign, Assigner: assign.Sequential,
		Prov: led.NewGameLog(provenance.StageGame, -1)}
	g := steadyGame(t, cfg)
	const runs = 30
	g.Reserve(runs + 2)
	allocs := testing.AllocsPerRun(runs, func() {
		if !g.Step() {
			t.Fatalf("game ended mid-measurement")
		}
	})
	// The gate is deliberately loose against growth-spike timing, but tight
	// enough that accidental per-trial boxing (one alloc per candidate would
	// show up as tens per iteration here) fails immediately.
	const maxAllocs = 6
	if allocs > maxAllocs {
		t.Fatalf("provenance-enabled iteration allocates %.2f allocs/iter (gate %d)", allocs, maxAllocs)
	}
}
