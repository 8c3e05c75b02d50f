package collab

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"imtao/internal/assign"
	"imtao/internal/model"
)

// seededInstance builds a random multi-center instance via the shared
// collab_test helper, from a bare seed.
func seededInstance(seed int64, nc, nw, nt int) *model.Instance {
	return randomInstance(rand.New(rand.NewSource(seed)), nc, nw, nt)
}

// stripDurations zeroes the one TraceStep field outside the determinism
// contract (per-iteration wall clock) so traces can be compared bit-for-bit.
func stripDurations(trace []TraceStep) []TraceStep {
	out := append([]TraceStep(nil), trace...)
	for i := range out {
		out[i].Duration = 0
	}
	return out
}

// TestRunParallelismDeterminism checks that every recipient/candidate/scope
// combination produces bit-identical results at Parallelism 1 and 8,
// including the full iteration trace.
func TestRunParallelismDeterminism(t *testing.T) {
	in := seededInstance(7, 6, 40, 160)
	p1 := phase1(in)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"BDC", Config{Scope: FullReassign, Assigner: assign.Sequential}},
		{"DC", Config{Scope: LeftoverOnly, Assigner: assign.Sequential}},
		{"MaxLeftover", Config{Recipient: MaxLeftover, Assigner: assign.Sequential}},
		{"NearestWorker", Config{Candidate: NearestWorker, Assigner: assign.Sequential}},
		{"RBDC", Config{Recipient: RandomRecipient, Assigner: assign.Sequential}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serialCfg, parCfg := tc.cfg, tc.cfg
			serialCfg.Parallelism = 1
			parCfg.Parallelism = 8
			if tc.cfg.Recipient == RandomRecipient {
				serialCfg.Rng = rand.New(rand.NewSource(3))
				parCfg.Rng = rand.New(rand.NewSource(3))
			}
			serial := Run(in, p1, serialCfg)
			parallel := Run(in, p1, parCfg)
			if serial.Iterations != parallel.Iterations {
				t.Fatalf("iterations: serial %d, parallel %d", serial.Iterations, parallel.Iterations)
			}
			if !reflect.DeepEqual(stripDurations(serial.Trace), stripDurations(parallel.Trace)) {
				t.Fatalf("traces differ")
			}
			if !reflect.DeepEqual(serial.Solution.Transfers, parallel.Solution.Transfers) {
				t.Fatalf("transfers differ:\nserial   %v\nparallel %v",
					serial.Solution.Transfers, parallel.Solution.Transfers)
			}
			if !reflect.DeepEqual(serial.Solution.PerCenter, parallel.Solution.PerCenter) {
				t.Fatalf("per-center routes differ")
			}
		})
	}
}

// TestMemoNeverChangesResults compares a memoized run against one with the
// cache disabled (the noMemo test hook): the game must be bit-identical —
// the cache only ever returns what a fresh evaluation would compute — and
// the memoized run must never issue more assigner calls.
func TestMemoNeverChangesResults(t *testing.T) {
	in := seededInstance(11, 5, 30, 120)
	p1 := phase1(in)

	counter := func(n *int) Assigner {
		return func(in *model.Instance, c *model.Center, ws []model.WorkerID, ts []model.TaskID) assign.Result {
			*n++
			return assign.Sequential(in, c, ws, ts)
		}
	}
	var memoCalls, freshCalls int
	memoized := Run(in, p1, Config{Assigner: counter(&memoCalls), Parallelism: 1})
	fresh := Run(in, p1, Config{Assigner: counter(&freshCalls), Parallelism: 1, noMemo: true})

	if !reflect.DeepEqual(stripDurations(memoized.Trace), stripDurations(fresh.Trace)) {
		t.Fatalf("memoized run diverged from unmemoized reference")
	}
	if !reflect.DeepEqual(memoized.Solution.PerCenter, fresh.Solution.PerCenter) {
		t.Fatalf("memoized solution diverged from unmemoized reference")
	}
	if memoized.Iterations < 3 {
		t.Fatalf("instance too easy to exercise memoization (only %d iterations)", memoized.Iterations)
	}
	if memoCalls > freshCalls {
		t.Fatalf("memoization added work: %d calls memoized vs %d unmemoized", memoCalls, freshCalls)
	}
}

// TestCachedVerifyReusesTrials measures the memo where it pays off: the
// equilibrium verifier. A center that dropped out of the game evaluated
// every pool candidate against its final state, which is exactly what the
// verifier re-derives; Result.VerifyEquilibrium must reach the same verdict
// as the package-level verifier with strictly fewer assigner calls.
func TestCachedVerifyReusesTrials(t *testing.T) {
	in := seededInstance(11, 5, 30, 120)
	p1 := phase1(in)
	res := Run(in, p1, Config{Assigner: assign.Sequential})

	counter := func(n *int) Assigner {
		return func(in *model.Instance, c *model.Center, ws []model.WorkerID, ts []model.TaskID) assign.Result {
			*n++
			return assign.Sequential(in, c, ws, ts)
		}
	}
	var cachedCalls, freshCalls int
	cachedErr := res.VerifyEquilibrium(in, counter(&cachedCalls))
	freshErr := VerifyEquilibrium(in, res.Solution, counter(&freshCalls))

	if (cachedErr == nil) != (freshErr == nil) {
		t.Fatalf("verdicts differ: cached %v, fresh %v", cachedErr, freshErr)
	}
	if cachedErr != nil {
		t.Fatalf("BDC outcome is not an equilibrium: %v", cachedErr)
	}
	if freshCalls == 0 {
		t.Skip("final pool empty; nothing for the verifier to probe")
	}
	if cachedCalls >= freshCalls {
		t.Fatalf("trial cache ineffective: %d assigner calls cached vs %d fresh", cachedCalls, freshCalls)
	}
	t.Logf("verifier assigner calls: %d cached vs %d fresh", cachedCalls, freshCalls)
}

// TestNoGoroutineOutlivesGame: a game's trial helpers end with it. After
// Finish, Run, RunSharded (shard games with and without inner parallelism)
// and VerifyEquilibrium return, the goroutine count is back where it began.
func TestNoGoroutineOutlivesGame(t *testing.T) {
	in := seededInstance(11, 6, 60, 400)
	p1 := phase1(in)
	cfg := seqConfig()
	cfg.Parallelism = 4
	before := runtime.NumGoroutine()
	settled := func(what string) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
			if time.Now().After(deadline) {
				t.Fatalf("after %s: %d goroutines, %d before", what, runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
	}

	g := NewGame(in, p1, cfg)
	for g.Step() && len(g.helpers.wake) == 0 {
	}
	if len(g.helpers.wake) == 0 {
		t.Fatal("no step started a trial helper; the check below would be vacuous")
	}
	g.Finish()
	settled("Finish")

	res := Run(in, p1, cfg)
	settled("Run")
	for _, shardPar := range []int{1, 2} {
		RunSharded(in, p1, ShardConfig{Config: cfg, Shards: 3, Seed: 1, ShardParallelism: shardPar})
		settled("RunSharded")
	}
	if err := res.VerifyEquilibrium(in, nil); err != nil {
		t.Fatal(err)
	}
	if err := VerifyEquilibrium(in, res.Solution, nil); err != nil {
		t.Fatal(err)
	}
	settled("VerifyEquilibrium")
}

// TestEvalTrialsSlots checks the fixed-slot contract directly: results land
// at their candidate's index regardless of parallelism, and cached entries
// are returned verbatim.
func TestEvalTrialsSlots(t *testing.T) {
	in := seededInstance(3, 4, 24, 96)
	center := in.Center(0)
	var cands []model.WorkerID
	for _, w := range in.Workers {
		cands = append(cands, w.ID)
	}
	base := center.Workers
	for _, par := range []int{1, 2, 8} {
		g := &Game{in: in, cfg: Config{Assigner: assign.Sequential, Parallelism: par}}
		got, evaluated := g.evalTrials(center, cands, base, nil, nil, nil, 0)
		g.stopTrialPool()
		if len(got) != len(cands) {
			t.Fatalf("par=%d: %d results for %d candidates", par, len(got), len(cands))
		}
		if evaluated != len(cands) {
			t.Fatalf("par=%d: evaluated %d of %d uncached candidates", par, evaluated, len(cands))
		}
		for i, w := range cands {
			ws := append(append([]model.WorkerID(nil), base...), w)
			want := assign.Sequential(in, center, ws, center.Tasks)
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("par=%d: slot %d (worker %d) mismatch", par, i, w)
			}
		}
	}
	// Cache hits bypass the assigner entirely.
	cache := map[model.WorkerID]assign.Result{}
	poisoned := func(in *model.Instance, c *model.Center, ws []model.WorkerID, ts []model.TaskID) assign.Result {
		t.Fatalf("assigner called despite full cache")
		return assign.Result{}
	}
	for _, w := range cands {
		ws := append(append([]model.WorkerID(nil), base...), w)
		cache[w] = assign.Sequential(in, center, ws, center.Tasks)
	}
	g := &Game{in: in, cfg: Config{Assigner: poisoned, Parallelism: 4}}
	got, evaluated := g.evalTrials(center, cands, base, nil, cache, nil, 0)
	g.stopTrialPool()
	if evaluated != 0 {
		t.Fatalf("full cache but %d trials evaluated", evaluated)
	}
	for i, w := range cands {
		if !reflect.DeepEqual(got[i], cache[w]) {
			t.Fatalf("cached slot %d (worker %d) not returned verbatim", i, w)
		}
	}
}
