package collab

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"imtao/internal/assign"
	"imtao/internal/geo"
	"imtao/internal/metrics"
	"imtao/internal/model"
)

// fingerprintSolution hashes the full assignment output — every route and
// every transfer — mirroring the bench harness's fingerprint, so equality
// here is equality of the whole solution.
func fingerprintSolution(sol *model.Solution) uint64 {
	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for ci := range sol.PerCenter {
		for _, r := range sol.PerCenter[ci].Routes {
			word(uint64(ci))
			word(uint64(r.Worker))
			for _, tid := range r.Tasks {
				word(uint64(tid))
			}
			word(^uint64(0))
		}
	}
	for _, tr := range sol.Transfers {
		word(uint64(tr.Src))
		word(uint64(tr.Dst))
		word(uint64(tr.Worker))
	}
	return h.Sum64()
}

// stripEngineDiagnostics zeroes the TraceStep fields outside the cross-engine
// equivalence contract: the wall clock and the trial/prune/resume/replay
// counters (the optimized engine does strictly less work).
func stripEngineDiagnostics(trace []TraceStep) []TraceStep {
	out := append([]TraceStep(nil), trace...)
	for i := range out {
		out[i].Duration = 0
		out[i].Trials = 0
		out[i].Pruned = 0
		out[i].Resumed = 0
		out[i].Replays = 0
	}
	return out
}

// optAssigner wraps assign.Optimal in a function of its own, so the game
// does not recognise it and runs it unpruned, as it runs every custom
// assigner.
func optAssigner(in *model.Instance, c *model.Center, ws []model.WorkerID, ts []model.TaskID) assign.Result {
	return assign.Optimal(in, c, ws, ts)
}

// optPhase1 is phase 1 under the exact Optimal assigner.
func optPhase1(in *model.Instance) []assign.Result {
	out := make([]assign.Result, len(in.Centers))
	for ci := range in.Centers {
		c := in.Center(model.CenterID(ci))
		out[ci] = assign.Optimal(in, c, c.Workers, c.Tasks)
	}
	return out
}

// engineCases enumerates the paper's method grid for both per-center
// assigners: BDC/DC/RBDC × {Sequential, Optimal}, plus the recipient-policy
// ablation under Sequential. assign.Optimal itself is pruned (prunes); the
// optAssigner wrapper runs the same search unpruned. opt marks the cases
// whose phase 1 must also run Optimal — pruning assumes the initial state
// is a fixed point of the game's own assigner, as core.Run guarantees by
// using one assigner for both phases.
func engineCases() []struct {
	name string
	opt  bool
	cfg  Config
} {
	return []struct {
		name string
		opt  bool
		cfg  Config
	}{
		{"Seq-BDC", false, Config{Scope: FullReassign, Assigner: assign.Sequential}},
		{"Seq-DC", false, Config{Scope: LeftoverOnly, Assigner: assign.Sequential}},
		{"Seq-RBDC", false, Config{Recipient: RandomRecipient, Assigner: assign.Sequential}},
		{"Seq-MaxLeftover", false, Config{Recipient: MaxLeftover, Assigner: assign.Sequential}},
		{"Opt-BDC", true, Config{Scope: FullReassign, Assigner: assign.Optimal}},
		{"Opt-DC", true, Config{Scope: LeftoverOnly, Assigner: assign.Optimal}},
		{"Opt-RBDC", true, Config{Recipient: RandomRecipient, Assigner: assign.Optimal}},
		{"Opt-BDC-noprune", true, Config{Scope: FullReassign, Assigner: optAssigner}},
	}
}

// TestRunMatchesReferenceAcrossMethods is the tentpole equivalence test: the
// optimized engine must be bit-identical to the frozen pre-engine loop —
// same routes, same transfers, same trace (diagnostics aside), same
// fingerprint — across every method × assigner combination.
func TestRunMatchesReferenceAcrossMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		// Optimal's VTDS enumeration is exponential, so its grid runs on a
		// small instance; the Sequential grid gets a larger one.
		inSeq := randomInstance(rng, 2+rng.Intn(5), 6+rng.Intn(24), 12+rng.Intn(60))
		inOpt := randomInstance(rng, 2+rng.Intn(2), 4+rng.Intn(5), 8+rng.Intn(8))
		p1Seq, p1Opt := phase1(inSeq), optPhase1(inOpt)
		for _, tc := range engineCases() {
			in, p1 := inSeq, p1Seq
			if tc.opt {
				in, p1 = inOpt, p1Opt
			}
			cfg := tc.cfg
			ref := cfg
			if cfg.Recipient == RandomRecipient {
				// Each engine consumes the same stream from its own RNG.
				cfg.Rng = rand.New(rand.NewSource(int64(trial)))
				ref.Rng = rand.New(rand.NewSource(int64(trial)))
			}
			got := Run(in, p1, cfg)
			want := RunReference(in, p1, ref)
			if !reflect.DeepEqual(got.Solution, want.Solution) {
				t.Fatalf("trial %d %s: solutions differ", trial, tc.name)
			}
			if gf, wf := fingerprintSolution(got.Solution), fingerprintSolution(want.Solution); gf != wf {
				t.Fatalf("trial %d %s: fingerprints differ: %x vs %x", trial, tc.name, gf, wf)
			}
			if got.Iterations != want.Iterations {
				t.Fatalf("trial %d %s: iterations %d vs %d", trial, tc.name, got.Iterations, want.Iterations)
			}
			gt := stripEngineDiagnostics(got.Trace)
			wt := stripEngineDiagnostics(want.Trace)
			if !reflect.DeepEqual(gt, wt) {
				for i := range gt {
					if i >= len(wt) || !reflect.DeepEqual(gt[i], wt[i]) {
						t.Fatalf("trial %d %s: trace diverges at step %d:\n got  %+v\n want %+v",
							trial, tc.name, i, gt[i], wt[i])
					}
				}
				t.Fatalf("trial %d %s: trace lengths differ: %d vs %d", trial, tc.name, len(gt), len(wt))
			}
		}
	}
}

// TestRunMatchesReferenceOnFig1 pins the equivalence on the worked example.
func TestRunMatchesReferenceOnFig1(t *testing.T) {
	in := paperFig1()
	p1 := phase1(in)
	got := Run(in, p1, seqConfig())
	want := RunReference(in, p1, seqConfig())
	if !reflect.DeepEqual(got.Solution, want.Solution) {
		t.Fatal("solutions differ on Fig. 1")
	}
	if !reflect.DeepEqual(stripEngineDiagnostics(got.Trace), stripEngineDiagnostics(want.Trace)) {
		t.Fatal("traces differ on Fig. 1")
	}
}

// TestRunEngineCountersFire asserts the optimizations actually engage on a
// pruning-friendly instance: some candidates pruned, every evaluated trial
// resumed, and the w/o-C baseline untouched by comparison.
func TestRunEngineCountersFire(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	var pruned, resumed, trials int
	for trial := 0; trial < 10; trial++ {
		in := randomInstance(rng, 3+rng.Intn(4), 10+rng.Intn(20), 20+rng.Intn(50))
		p1 := phase1(in)
		res := Run(in, p1, seqConfig())
		for _, step := range res.Trace {
			pruned += step.Pruned
			resumed += step.Resumed
			trials += step.Trials
		}
	}
	if pruned == 0 {
		t.Fatal("admissibility pruning never fired across 10 random instances")
	}
	if trials == 0 {
		t.Fatal("no trials evaluated — degenerate test instances")
	}
	if resumed != trials {
		t.Fatalf("Sequential engine evaluated %d trials but resumed only %d", trials, resumed)
	}
}

// TestPrunedCandidatesNeverImprove is the pruning-soundness property test:
// via the test hook, every pruned candidate's FULL trial is replayed and must
// yield exactly the recipient's current assigned count — i.e. pruning only
// ever drops candidates whose best response is a no-op. The hook only
// observes, so the pool runs the same admission scan as every production
// solve. Covered for both assigners the game prunes for (Sequential, and
// the exact Optimal over an Optimal phase 1 on small instances, its
// enumeration being exponential) and both the full-reassign (BDC) and
// leftover-only (DC) scopes.
func TestPrunedCandidatesNeverImprove(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	assigners := []struct {
		name     string
		assigner Assigner
		instance func() *model.Instance
		phase1   func(*model.Instance) []assign.Result
	}{
		{"Sequential", assign.Sequential, func() *model.Instance {
			return randomInstance(rng, 2+rng.Intn(4), 8+rng.Intn(16), 16+rng.Intn(40))
		}, phase1},
		{"Optimal", assign.Optimal, func() *model.Instance {
			return randomInstance(rng, 2+rng.Intn(3), 6+rng.Intn(6), 10+rng.Intn(10))
		}, optPhase1},
	}
	for _, a := range assigners {
		for _, scope := range []Scope{FullReassign, LeftoverOnly} {
			checked := 0
			for trial := 0; trial < 12; trial++ {
				in := a.instance()
				p1 := a.phase1(in)
				cfg := Config{Scope: scope, Assigner: a.assigner}
				cfg.prunedHook = func(ci model.CenterID, w model.WorkerID,
					baseWS []model.WorkerID, leftTasks []model.TaskID, assigned int) {
					checked++
					center := in.Center(ci)
					if scope == LeftoverOnly {
						full := a.assigner(in, center, []model.WorkerID{w}, leftTasks)
						if got := full.AssignedCount(); got != 0 {
							t.Fatalf("%s scope %v: pruned DC candidate %d served %d leftover tasks",
								a.name, scope, w, got)
						}
						return
					}
					ws := append(append([]model.WorkerID(nil), baseWS...), w)
					full := a.assigner(in, center, ws, center.Tasks)
					if got := full.AssignedCount(); got != assigned {
						t.Fatalf("%s scope %v: pruned candidate %d changed assigned count %d → %d",
							a.name, scope, w, assigned, got)
					}
				}
				Run(in, p1, cfg)
			}
			if checked == 0 {
				t.Fatalf("%s scope %v: hook never saw a pruned candidate", a.name, scope)
			}
			t.Logf("%s scope %v: verified %d pruned candidates", a.name, scope, checked)
		}
	}
}

// TestBoundedSweepPicksFullScanWinner is the bounded sweep's exactness
// property. Via the test hook, every sweep's candidates are re-evaluated
// by full assigner runs, and the sweep must pick the candidate and ρ the
// full scan picks (max ρ, ties to the lowest worker ID). A candidate whose
// key the sweep evaluated must carry its exact count, and a skipped one a
// bound on it. Covered for Seq-BDC, Seq-DC, Seq-RBDC and the MaxLeftover
// policy on contested instances, readmission sweeps included.
func TestBoundedSweepPicksFullScanWinner(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, tc := range engineCases()[:4] {
		sweeps, skipped := 0, 0
		for trial := 0; trial < 64; trial++ {
			in := contestedInstance(rng, 2+rng.Intn(4), 10+rng.Intn(50), 40+rng.Intn(160), 6)
			p1 := phase1(in)
			cfg := tc.cfg
			if cfg.Recipient == RandomRecipient {
				cfg.Rng = rand.New(rand.NewSource(int64(trial)))
			}
			cfg.sweptHook = func(ci model.CenterID, sw sweepResult,
				baseWS []model.WorkerID, leftTasks []model.TaskID, assigned int) {
				sweeps++
				center := in.Center(ci)
				best, bestRho := -1, metrics.Ratio(assigned, len(center.Tasks))
				for i, w := range sw.cands {
					// got and n are the post-deviation assigned counts: a DC
					// trial's count adds to the current one.
					var full assign.Result
					got := sw.counts[i]
					if cfg.Scope == LeftoverOnly {
						full = assign.Sequential(in, center, []model.WorkerID{w}, leftTasks)
						got += assigned
					} else {
						ws := append(append([]model.WorkerID(nil), baseWS...), w)
						full = assign.Sequential(in, center, ws, center.Tasks)
					}
					n := full.AssignedCount()
					if cfg.Scope == LeftoverOnly {
						n += assigned
					}
					switch {
					case sw.bounded[i] && n > got:
						t.Fatalf("trial %d %s center %d cand %d: bound %d below the full count %d",
							trial, tc.name, ci, w, got, n)
					case sw.bounded[i]:
						skipped++
					case n != got:
						t.Fatalf("trial %d %s center %d cand %d: evaluated count %d, full count %d",
							trial, tc.name, ci, w, got, n)
					}
					if rho := metrics.Ratio(n, len(center.Tasks)); rho > bestRho+rhoEps {
						best, bestRho = i, rho
					}
				}
				if sw.best != best || sw.bestRho != bestRho {
					t.Fatalf("trial %d %s center %d: the sweep picks candidate %d (ρ %v), the full scan %d (ρ %v)",
						trial, tc.name, ci, sw.best, sw.bestRho, best, bestRho)
				}
			}
			Run(in, p1, cfg)
		}
		if skipped == 0 {
			t.Fatalf("%s: no sweep skipped a key; the bound was never used", tc.name)
		}
		t.Logf("%s: %d sweeps, %d candidates skipped", tc.name, sweeps, skipped)
	}
}

// contestedInstance builds a random instance of nc centers, nw workers and
// nt tasks on which the best-response sweep has real choices to make: the
// centers sit in the middle of a 100² map, so most workers can reach a
// neighbour's tasks, each worker's MaxT is drawn from 1–maxT, so capacity
// binds unevenly, and expiries run 30–90 at speed 1, so some routes end at
// a deadline below capacity. Trial keys then tie on their counts under
// different bounds, and Optimal often beats Sequential in phase 1.
func contestedInstance(rng *rand.Rand, nc, nw, nt, maxT int) *model.Instance {
	in := &model.Instance{Speed: 1, Bounds: geo.NewRect(geo.Pt(0, 0), geo.Pt(100, 100))}
	for i := 0; i < nc; i++ {
		in.Centers = append(in.Centers, model.Center{ID: model.CenterID(i),
			Loc: geo.Pt(20+60*rng.Float64(), 20+60*rng.Float64())})
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
		p := geo.Pt(100*rng.Float64(), 100*rng.Float64())
		c := nearest(p)
		in.Tasks = append(in.Tasks, model.Task{ID: model.TaskID(i), Center: c, Loc: p,
			Expiry: 30 + 60*rng.Float64(), Reward: 1})
		in.Centers[c].Tasks = append(in.Centers[c].Tasks, model.TaskID(i))
	}
	for i := 0; i < nw; i++ {
		p := geo.Pt(100*rng.Float64(), 100*rng.Float64())
		c := nearest(p)
		in.Workers = append(in.Workers, model.Worker{ID: model.WorkerID(i), Home: c, Loc: p,
			MaxT: 1 + rng.Intn(maxT)})
		in.Centers[c].Workers = append(in.Centers[c].Workers, model.WorkerID(i))
	}
	return in
}

// TestSequentialGameOverOptimalPhase1MatchesReference pins the guard on
// the trial base. An Optimal phase 1 is not Sequential's answer for its
// inputs, so a Sequential game over it plays full trials at each center
// until the center's first accept, and must still match the frozen
// reference in solution, iterations and trace. Trials resumed from the
// Optimal routes would replay against routes Sequential never produced;
// the trial count is what it takes to meet instances where that changes
// the game. The instances are small, since Optimal's enumeration is
// exponential.
func TestSequentialGameOverOptimalPhase1MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for trial := 0; trial < 3000; trial++ {
		in := contestedInstance(rng, 2+rng.Intn(3), 4+rng.Intn(8), 8+rng.Intn(14), 2+rng.Intn(3))
		p1 := optPhase1(in)
		for _, cfg := range []Config{seqConfig(), {Recipient: MaxLeftover, Assigner: assign.Sequential}} {
			got, want := Run(in, p1, cfg), RunReference(in, p1, cfg)
			if !reflect.DeepEqual(got.Solution, want.Solution) || got.Iterations != want.Iterations {
				t.Fatalf("trial %d recipient %v: solution or iterations (%d vs %d) differ from the reference",
					trial, cfg.Recipient, got.Iterations, want.Iterations)
			}
			if !reflect.DeepEqual(stripEngineDiagnostics(got.Trace), stripEngineDiagnostics(want.Trace)) {
				t.Fatalf("trial %d recipient %v: traces differ from the reference", trial, cfg.Recipient)
			}
		}
	}
}

// reversedSequential is assign.Sequential with its unused workers returned
// in descending ID order: a custom assigner whose LeftWorkers come back
// unsorted.
func reversedSequential(in *model.Instance, c *model.Center, ws []model.WorkerID, ts []model.TaskID) assign.Result {
	r := assign.Sequential(in, c, ws, ts)
	slices.Reverse(r.LeftWorkers)
	return r
}

// TestUnsortedLeftWorkersMatchReference: a custom assigner that returns
// its unused workers unsorted plays the same game as the frozen reference,
// so the pool sync after an accept reads them in any order. The test
// counts the accepted steps whose unused workers came back unsorted, so it
// cannot pass without meeting one.
func TestUnsortedLeftWorkersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cfg := Config{Scope: FullReassign, Assigner: reversedSequential}
	unsorted := 0
	for trial := 0; trial < 100; trial++ {
		in := contestedInstance(rng, 3+rng.Intn(3), 30+rng.Intn(60), 90+rng.Intn(180), 4)
		p1 := phase1(in)
		g := NewGame(in, p1, cfg)
		for g.Step() {
			step := g.res.Trace[len(g.res.Trace)-1]
			if !step.Accepted {
				continue
			}
			ci := step.Recipient
			c := in.Center(ci)
			if lws := reversedSequential(in, c, g.states[ci].workers, c.Tasks).LeftWorkers; !slices.IsSorted(lws) {
				unsorted++
			}
		}
		got, want := g.Finish(), RunReference(in, p1, cfg)
		if !reflect.DeepEqual(got.Solution, want.Solution) || got.Iterations != want.Iterations {
			t.Fatalf("trial %d: solution or iterations (%d vs %d) differ from the reference",
				trial, got.Iterations, want.Iterations)
		}
		if !reflect.DeepEqual(stripEngineDiagnostics(got.Trace), stripEngineDiagnostics(want.Trace)) {
			t.Fatalf("trial %d: traces differ from the reference", trial)
		}
	}
	if unsorted == 0 {
		t.Fatal("no accepted step returned its unused workers unsorted")
	}
	t.Logf("%d accepted steps returned their unused workers unsorted", unsorted)
}
