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

// TestRunParallelismDeterminism checks that every recipient/scope
// combination produces bit-identical results at GOMAXPROCS 1 and 8,
// including the full iteration trace.
func TestRunParallelismDeterminism(t *testing.T) {
	in := seededInstance(7, 6, 40, 160)
	p1 := phase1(in)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cases := []struct {
		name string
		cfg  Config
	}{
		{"BDC", Config{Scope: FullReassign, Assigner: assign.Sequential}},
		{"DC", Config{Scope: LeftoverOnly, Assigner: assign.Sequential}},
		{"MaxLeftover", Config{Recipient: MaxLeftover, Assigner: assign.Sequential}},
		{"RBDC", Config{Recipient: RandomRecipient, Assigner: assign.Sequential}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serialCfg, parCfg := tc.cfg, tc.cfg
			if tc.cfg.Recipient == RandomRecipient {
				serialCfg.Rng = rand.New(rand.NewSource(3))
				parCfg.Rng = rand.New(rand.NewSource(3))
			}
			runtime.GOMAXPROCS(1)
			serial := Run(in, p1, serialCfg)
			runtime.GOMAXPROCS(8)
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

// TestNoGoroutineOutlivesGame: stepping a game at GOMAXPROCS 4 starts no
// goroutine, and after Run, RunSharded (serial, and concurrent shard games)
// and VerifyEquilibrium return, the goroutine count is back where it began.
// Some of the game's sweeps have candidates of several trial keys.
func TestNoGoroutineOutlivesGame(t *testing.T) {
	in := seededInstance(7, 6, 60, 400)
	p1 := phase1(in)
	cfg := seqConfig()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
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
	settled("NewGame")
	multiKey := false
	for g.Step() {
		multiKey = multiKey || len(g.keys.keys) > 1
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("after step %d: %d goroutines, %d before", g.iter, n, before)
		}
	}
	if !multiKey {
		t.Fatal("no sweep had two trial keys; the check above would be vacuous")
	}

	res := Run(in, p1, cfg)
	settled("Run")
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		RunSharded(in, p1, ShardConfig{Config: cfg, Shards: 3, Seed: 1})
		settled("RunSharded")
	}
	if err := VerifyEquilibrium(in, res.Solution, nil); err != nil {
		t.Fatal(err)
	}
	settled("VerifyEquilibrium")
}

// TestEvalTrialsSlots checks the fixed-slot contract directly on the
// full-trial path: results land at their candidate's index, and every
// candidate is its own group.
func TestEvalTrialsSlots(t *testing.T) {
	in := seededInstance(3, 4, 24, 96)
	center := in.Center(0)
	var cands []model.WorkerID
	for _, w := range in.Workers {
		cands = append(cands, w.ID)
	}
	base := center.Workers
	g := &Game{in: in, cfg: Config{Assigner: assign.Sequential}}
	counts, _, replays := g.evalTrials(center, cands, base, nil, nil, 0, 0)
	if len(counts) != len(cands) || replays != len(cands) {
		t.Fatalf("%d counts and %d replays for %d candidates", len(counts), replays, len(cands))
	}
	for i, w := range cands {
		ws := append(append([]model.WorkerID(nil), base...), w)
		want := assign.Sequential(in, center, ws, center.Tasks)
		if !reflect.DeepEqual(*g.trialOf(i), want) || counts[i] != want.AssignedCount() {
			t.Fatalf("slot %d (worker %d) mismatch", i, w)
		}
	}
}
