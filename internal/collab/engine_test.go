package collab

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"

	"imtao/internal/assign"
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
