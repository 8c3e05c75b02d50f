package collab

import (
	"math/rand"
	"testing"

	"imtao/internal/assign"
	"imtao/internal/geo"
	"imtao/internal/metrics"
	"imtao/internal/model"
	"imtao/internal/routing"
)

// phase1 runs the sequential assigner independently per center.
func phase1(in *model.Instance) []assign.Result {
	out := make([]assign.Result, len(in.Centers))
	for ci := range in.Centers {
		c := in.Center(model.CenterID(ci))
		out[ci] = assign.Sequential(in, c, c.Workers, c.Tasks)
	}
	return out
}

// paperFig1 builds an instance in the spirit of the paper's Fig. 1 worked
// example: three centers; c0 has a surplus worker that, once dispatched to
// c2 and combined with a full reassignment, raises both the total assigned
// count and fairness.
//
// Geometry (speed 1, expiry 10, maxT 1):
//
//	c0 at (0,0):  workers w0 (0,1), w1 (1,0); task t0 (0,2).
//	c1 at (100,0): worker w2 (100,1); tasks t1 (100,2), t2 (100,60) [unreachable].
//	c2 at (40,0):  worker w3 (40,30) [marginal]; tasks t3 (40,28), t4 (40,4), t5 (40,55).
//
// Independent phase: c0 assigns t0 (ρ=1, one worker spare); c1 assigns t1
// (ρ=1/2); c2's w3 arrives at the center at t=30, too late for anything
// (every task expired) — wait, expiry 10 means even t4 is tight for w3:
// 30 + 4 > 10. So c2 assigns nothing with w3?! To mirror the paper we give
// w3 a feasible nearby task t3 via a custom expiry.
func paperFig1() *model.Instance {
	in := &model.Instance{
		Centers: []model.Center{
			{ID: 0, Loc: geo.Pt(0, 0)},
			{ID: 1, Loc: geo.Pt(100, 0)},
			{ID: 2, Loc: geo.Pt(40, 0)},
		},
		Speed:  1,
		Bounds: geo.NewRect(geo.Pt(-10, -10), geo.Pt(150, 100)),
	}
	addTask := func(c model.CenterID, x, y, e float64) {
		id := model.TaskID(len(in.Tasks))
		in.Tasks = append(in.Tasks, model.Task{ID: id, Center: c, Loc: geo.Pt(x, y), Expiry: e, Reward: 1})
		in.Centers[c].Tasks = append(in.Centers[c].Tasks, id)
	}
	addWorker := func(c model.CenterID, x, y float64, maxT int) {
		id := model.WorkerID(len(in.Workers))
		in.Workers = append(in.Workers, model.Worker{ID: id, Home: c, Loc: geo.Pt(x, y), MaxT: maxT})
		in.Centers[c].Workers = append(in.Centers[c].Workers, id)
	}
	// Center 0: two workers, one task.
	addWorker(0, 0, 1, 1)
	addWorker(0, 1, 0, 1)
	addTask(0, 0, 2, 10)
	// Center 1: one worker, two tasks (one unreachable).
	addWorker(1, 100, 1, 1)
	addTask(1, 100, 2, 10)
	addTask(1, 100, 60, 10)
	// Center 2: one marginal worker, three tasks; only t3 is deliverable by
	// w3 (long expiry), t4 is deliverable by a dispatched c0 worker, t5 is
	// out of reach for everyone.
	addWorker(2, 40, 30, 1)
	addTask(2, 40, 28, 80)
	addTask(2, 40, 4, 50)
	addTask(2, 40, 55, 10)
	return in
}

func seqConfig() Config {
	return Config{Recipient: MinRatio, Scope: FullReassign, Assigner: assign.Sequential}
}

func TestNoCollaboration(t *testing.T) {
	in := paperFig1()
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	p1 := phase1(in)
	sol := NoCollaboration(in, p1)
	if err := routing.SolutionFeasible(in, sol); err != nil {
		t.Fatal(err)
	}
	// c0: 1 task; c1: 1 task; c2: w3 takes the nearest task it can (t3).
	if got := sol.AssignedCount(); got != 3 {
		t.Fatalf("w/o-C assigned = %d, want 3", got)
	}
	rhos := metrics.Ratios(in, sol)
	if rhos[0] != 1 || rhos[1] != 0.5 {
		t.Fatalf("rhos = %v", rhos)
	}
}

func TestRunImprovesAssignmentAndFairness(t *testing.T) {
	in := paperFig1()
	p1 := phase1(in)
	base := NoCollaboration(in, p1)
	res := Run(in, p1, seqConfig())
	if err := routing.SolutionFeasible(in, res.Solution); err != nil {
		t.Fatal(err)
	}
	if res.Solution.AssignedCount() <= base.AssignedCount() {
		t.Fatalf("collaboration did not help: %d vs %d",
			res.Solution.AssignedCount(), base.AssignedCount())
	}
	uBase := metrics.SolutionUnfairness(in, base)
	uBDC := metrics.SolutionUnfairness(in, res.Solution)
	if uBDC >= uBase {
		t.Fatalf("unfairness did not drop: %v vs %v", uBDC, uBase)
	}
	if len(res.Solution.Transfers) == 0 {
		t.Fatal("expected at least one workforce transfer")
	}
	// The dispatched worker must come from center 0 (the only surplus).
	for _, tr := range res.Solution.Transfers {
		if tr.Src != 0 {
			t.Fatalf("transfer from unexpected source: %+v", tr)
		}
		if w := in.Worker(tr.Worker); w.Home != tr.Src {
			t.Fatalf("transfer source does not match worker home: %+v", tr)
		}
	}
}

func TestRunTraceIsMonotone(t *testing.T) {
	in := paperFig1()
	p1 := phase1(in)
	res := Run(in, p1, seqConfig())
	prevAssigned := NoCollaboration(in, p1).AssignedCount()
	for _, step := range res.Trace {
		if step.Accepted {
			if step.Assigned < prevAssigned {
				t.Fatalf("assigned count decreased at iteration %d", step.Iteration)
			}
			if step.RhoAfter <= step.RhoBefore {
				t.Fatalf("accepted step without ratio gain: %+v", step)
			}
			prevAssigned = step.Assigned
		} else if step.RhoAfter != step.RhoBefore {
			t.Fatalf("rejected step changed rho: %+v", step)
		}
	}
}

func TestRunTerminatesAtEquilibrium(t *testing.T) {
	// After Run finishes, re-running collaboration on the resulting state
	// must produce no further accepted transfers (Nash equilibrium: no
	// center can improve unilaterally). We verify via a second Run seeded
	// with the final routes reconstructed as phase-1 results.
	in := paperFig1()
	p1 := phase1(in)
	res := Run(in, p1, seqConfig())

	// Rebuild phase-1-shaped results from the final solution.
	again := make([]assign.Result, len(in.Centers))
	assigned := res.Solution.AssignedTasks()
	usedWorkers := map[model.WorkerID]bool{}
	for ci := range in.Centers {
		again[ci].Routes = res.Solution.PerCenter[ci].Routes
		for _, r := range res.Solution.PerCenter[ci].Routes {
			usedWorkers[r.Worker] = true
		}
		for _, tid := range in.Centers[ci].Tasks {
			if !assigned[tid] {
				again[ci].LeftTasks = append(again[ci].LeftTasks, tid)
			}
		}
	}
	for _, w := range in.Workers {
		if !usedWorkers[w.ID] {
			again[w.Home].LeftWorkers = append(again[w.Home].LeftWorkers, w.ID)
		}
	}
	res2 := Run(in, again, seqConfig())
	for _, step := range res2.Trace {
		if step.Accepted {
			t.Fatalf("post-equilibrium run accepted a transfer: %+v", step)
		}
	}
}

func TestRunDCNeverBreaksExistingRoutes(t *testing.T) {
	in := paperFig1()
	p1 := phase1(in)
	cfg := seqConfig()
	cfg.Scope = LeftoverOnly
	res := Run(in, p1, cfg)
	if err := routing.SolutionFeasible(in, res.Solution); err != nil {
		t.Fatal(err)
	}
	// Every phase-1 route must appear unchanged in the DC solution.
	for ci := range in.Centers {
		for _, orig := range p1[ci].Routes {
			found := false
			for _, r := range res.Solution.PerCenter[ci].Routes {
				if r.Worker == orig.Worker && len(r.Tasks) == len(orig.Tasks) {
					same := true
					for k := range r.Tasks {
						if r.Tasks[k] != orig.Tasks[k] {
							same = false
							break
						}
					}
					if same {
						found = true
						break
					}
				}
			}
			if !found {
				t.Fatalf("DC modified an existing route of center %d: %+v", ci, orig)
			}
		}
	}
}

func TestRunBDCBeatsDCOnFig1(t *testing.T) {
	// In the Fig. 1 narrative DC fails because leftover tasks are out of
	// reach for the dispatched worker, while BDC reshuffles and wins.
	// t4 (reachable from c0's spare worker) is taken by nobody in phase 1 —
	// actually w3 takes t3 and t4 is leftover and reachable, so DC also
	// helps here; the BDC ≥ DC dominance is what we assert.
	in := paperFig1()
	p1 := phase1(in)
	bdc := Run(in, p1, seqConfig())
	cfgDC := seqConfig()
	cfgDC.Scope = LeftoverOnly
	dc := Run(in, p1, cfgDC)
	if bdc.Solution.AssignedCount() < dc.Solution.AssignedCount() {
		t.Fatalf("BDC %d < DC %d", bdc.Solution.AssignedCount(), dc.Solution.AssignedCount())
	}
}

func TestRunRandomRecipientIsSeededDeterministic(t *testing.T) {
	in := paperFig1()
	p1 := phase1(in)
	cfg := seqConfig()
	cfg.Recipient = RandomRecipient
	cfg.Rng = rand.New(rand.NewSource(7))
	a := Run(in, p1, cfg)
	cfg.Rng = rand.New(rand.NewSource(7))
	b := Run(in, p1, cfg)
	if a.Solution.AssignedCount() != b.Solution.AssignedCount() || len(a.Trace) != len(b.Trace) {
		t.Fatal("same seed must give identical RBDC runs")
	}
}

func TestRunNoRecipients(t *testing.T) {
	// Every center fully assigned: collaboration is a no-op.
	in := paperFig1()
	// Drop the unreachable tasks so phase 1 achieves ρ=1 everywhere except
	// centers that still have spare... simpler: build a trivially easy scene.
	easy := &model.Instance{
		Centers: []model.Center{
			{ID: 0, Loc: geo.Pt(0, 0), Tasks: []model.TaskID{0}, Workers: []model.WorkerID{0}},
		},
		Tasks:   []model.Task{{ID: 0, Center: 0, Loc: geo.Pt(1, 0), Expiry: 100, Reward: 1}},
		Workers: []model.Worker{{ID: 0, Home: 0, Loc: geo.Pt(0, 0), MaxT: 4}},
		Speed:   1,
		Bounds:  in.Bounds,
	}
	p1 := phase1(easy)
	res := Run(easy, p1, seqConfig())
	if len(res.Trace) != 0 || res.Iterations != 0 {
		t.Fatalf("no-op collaboration ran %d iterations", res.Iterations)
	}
	if res.Solution.AssignedCount() != 1 {
		t.Fatal("solution must carry the phase-1 routes")
	}
}

// Property: on random instances, BDC collaboration never reduces the total
// assigned count relative to w/o-C, the final solution is always feasible,
// and transfers reference real surplus workers.
func TestRunRandomInstancesInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 25; trial++ {
		in := randomInstance(rng, 2+rng.Intn(5), 3+rng.Intn(12), 8+rng.Intn(40))
		p1 := phase1(in)
		base := NoCollaboration(in, p1)
		res := Run(in, p1, seqConfig())
		if err := routing.SolutionFeasible(in, res.Solution); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Solution.AssignedCount() < base.AssignedCount() {
			t.Fatalf("trial %d: collaboration reduced assignment %d -> %d",
				trial, base.AssignedCount(), res.Solution.AssignedCount())
		}
		seen := map[model.WorkerID]bool{}
		for _, tr := range res.Solution.Transfers {
			if seen[tr.Worker] {
				t.Fatalf("trial %d: worker %d transferred twice", trial, tr.Worker)
			}
			seen[tr.Worker] = true
			if tr.Src == tr.Dst {
				t.Fatalf("trial %d: self transfer %+v", trial, tr)
			}
		}
	}
}

// randomInstance builds a multi-center instance with Voronoi-free direct
// attachment: entities are attached to the nearest center by brute force.
func randomInstance(rng *rand.Rand, nc, nw, nt int) *model.Instance {
	in := &model.Instance{
		Speed:  300,
		Bounds: geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000)),
	}
	for i := 0; i < nc; i++ {
		in.Centers = append(in.Centers, model.Center{
			ID: model.CenterID(i), Loc: geo.Pt(rng.Float64()*1000, rng.Float64()*1000),
		})
	}
	nearest := func(p geo.Point) model.CenterID {
		best, bd := 0, p.Dist2(in.Centers[0].Loc)
		for i := 1; i < nc; i++ {
			if d := p.Dist2(in.Centers[i].Loc); d < bd {
				best, bd = i, d
			}
		}
		return model.CenterID(best)
	}
	for i := 0; i < nt; i++ {
		p := geo.Pt(rng.Float64()*1000, rng.Float64()*1000)
		c := nearest(p)
		id := model.TaskID(i)
		in.Tasks = append(in.Tasks, model.Task{ID: id, Center: c, Loc: p, Expiry: 1 + rng.Float64(), Reward: 1})
		in.Centers[c].Tasks = append(in.Centers[c].Tasks, id)
	}
	for i := 0; i < nw; i++ {
		p := geo.Pt(rng.Float64()*1000, rng.Float64()*1000)
		c := nearest(p)
		id := model.WorkerID(i)
		in.Workers = append(in.Workers, model.Worker{ID: id, Home: c, Loc: p, MaxT: 4})
		in.Centers[c].Workers = append(in.Centers[c].Workers, id)
	}
	return in
}

func TestMaxLeftoverPolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(153))
	for trial := 0; trial < 10; trial++ {
		in := randomInstance(rng, 3, 8, 24)
		p1 := phase1(in)
		base := NoCollaboration(in, p1).AssignedCount()
		cfg := seqConfig()
		cfg.Recipient = MaxLeftover
		out := Run(in, p1, cfg)
		if err := routing.SolutionFeasible(in, out.Solution); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if out.Solution.AssignedCount() < base {
			t.Fatalf("trial %d: max-leftover lost tasks", trial)
		}
	}
}
