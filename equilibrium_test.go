// Regression tests for the game's stop rule (DESIGN.md §5): a center that
// left the game plays again when a later re-plan hands the pool a worker
// that would improve it, so every uncapped run ends at a verified pure Nash
// equilibrium. Each instance below ended in a state VerifyEquilibrium
// rejects under the literal Algorithm 3 (a departed center never returns).
package imtao

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"imtao/internal/assign"
	"imtao/internal/collab"
	"imtao/internal/metrics"
	"imtao/internal/model"
	"imtao/internal/provenance"
	"imtao/internal/workload"
)

// paperInstance generates and partitions one Table I instance and runs the
// Sequential phase 1 on it.
func paperInstance(t *testing.T, d Dataset, seed int64) (*Instance, []assign.Result) {
	t.Helper()
	p := DefaultParams(d)
	p.Seed = seed
	raw, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	in, err := Partition(raw)
	if err != nil {
		t.Fatal(err)
	}
	phase1 := make([]assign.Result, len(in.Centers))
	for ci := range in.Centers {
		c := in.Center(model.CenterID(ci))
		phase1[ci] = assign.Sequential(in, c, c.Workers, c.Tasks)
	}
	return in, phase1
}

// TestGMSeed296EndsAtNash: at the Table I defaults, GM seed 296 used to end
// with center 6 able to go from ρ 0.7273 to 0.9091 by borrowing worker 11.
func TestGMSeed296EndsAtNash(t *testing.T) {
	in, _ := paperInstance(t, GM, 296)
	rep, err := Run(in, SeqBDC)
	if err != nil {
		t.Fatal(err)
	}
	if err := collab.VerifyEquilibrium(in, rep.Solution, assign.Sequential); err != nil {
		t.Fatalf("Seq-BDC end state: %v", err)
	}
}

// TestReadmittedRunsMatchReference: on instances where the end check
// re-admits a departed center under each recipient policy, the optimized
// engine and the reference loop make the same moves, and end at a verified
// equilibrium.
func TestReadmittedRunsMatchReference(t *testing.T) {
	cases := []struct {
		name string
		d    Dataset
		seed int64
		cfg  collab.Config
		rng  int64 // RandomRecipient stream seed; 0 for the other policies
	}{
		{"GM296/Seq-BDC", GM, 296, collab.Config{}, 0},
		{"GM296/Seq-RBDC", GM, 296, collab.Config{Recipient: collab.RandomRecipient}, 51},
	}
	for _, tc := range cases {
		in, phase1 := paperInstance(t, tc.d, tc.seed)
		cfg := tc.cfg
		cfg.Assigner = assign.Sequential
		ref := cfg
		if tc.rng != 0 {
			cfg.Rng = rand.New(rand.NewSource(tc.rng))
			ref.Rng = rand.New(rand.NewSource(tc.rng))
		}
		got := collab.Run(in, phase1, cfg)
		want := collab.RunReference(in, phase1, ref)
		if !reflect.DeepEqual(got.Solution, want.Solution) {
			t.Fatalf("%s: Run and RunReference end in different solutions", tc.name)
		}
		if !reflect.DeepEqual(gameTrace(got.Trace), gameTrace(want.Trace)) {
			t.Fatalf("%s: Run and RunReference traces differ", tc.name)
		}
		if err := collab.VerifyEquilibrium(in, got.Solution, assign.Sequential); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}

// TestShardedReadmissionEndsAtNash: SYN seed 448 at three shards re-admits
// a center inside a phase-A shard game. The sharded run must still end at a
// verified global equilibrium, deterministically at GOMAXPROCS 1 and 4,
// with a ledger that replays to the same solution and a
// certificate that holds.
func TestShardedReadmissionEndsAtNash(t *testing.T) {
	in, _ := paperInstance(t, SYN, 448)
	var first *Report
	for _, par := range []int{1, 4} {
		led := NewLedger()
		var rep *Report
		var err error
		atProcs(par, func() { rep, err = Run(in, SeqBDC, WithShards(3), WithSeed(7), WithProvenance(led)) })
		if err != nil {
			t.Fatal(err)
		}
		if rep.Shard == nil || rep.Shard.Shards < 2 {
			t.Fatalf("par=%d: run was not sharded", par)
		}
		if err := collab.VerifyEquilibrium(in, rep.Solution, assign.Sequential); err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		rr, err := provenance.Replay(led)
		if err != nil {
			t.Fatal(err)
		}
		if provenance.SolutionFingerprint(rr.Solution) != provenance.SolutionFingerprint(rep.Solution) {
			t.Fatalf("par=%d: ledger replays to a different solution", par)
		}
		if led.Cert == nil || !led.Cert.Equilibrium {
			t.Fatalf("par=%d: certificate does not claim an equilibrium", par)
		}
		if first == nil {
			first = rep
		} else if !reflect.DeepEqual(rep.Solution, first.Solution) {
			t.Fatal("GOMAXPROCS changed the sharded solution")
		}
	}
}

// TestShardedExactOptEndsAtNash: the exact Opt, which the game prunes for,
// runs through the sharded engine and ends at an equilibrium of Opt's own
// best responses; a budgeted Opt runs unpruned, so it falls back to one
// game. The instance is small enough for the exact search, and its games
// move workers.
func TestShardedExactOptEndsAtNash(t *testing.T) {
	p := DefaultParams(SYN)
	p.NumTasks, p.NumWorkers, p.NumCenters, p.MaxT = 40, 20, 6, 2
	p.Seed = 1
	raw, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	in, err := Partition(raw)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(in, OptBDC, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shard == nil || rep.Shard.Shards != 2 || rep.Transfers == 0 {
		t.Fatalf("exact Opt-BDC was not sharded, or moved no worker: %d transfers, %+v",
			rep.Transfers, rep.Shard)
	}
	if err := collab.VerifyEquilibrium(in, rep.Solution, assign.Optimal); err != nil {
		t.Fatal(err)
	}
	budgeted, err := Run(in, OptBDC, WithShards(2), WithOptBudget(optTestBudget))
	if err != nil {
		t.Fatal(err)
	}
	if budgeted.Shard == nil || budgeted.Shard.Shards != 1 {
		t.Fatalf("budgeted Opt-BDC did not fall back: %+v", budgeted.Shard)
	}
}

// gameTrace drops the TraceStep fields outside the cross-engine contract:
// the wall clock and the work counters.
func gameTrace(trace []collab.TraceStep) []collab.TraceStep {
	out := append([]collab.TraceStep(nil), trace...)
	for i := range out {
		out[i].Duration = 0
		out[i].Trials, out[i].MemoHits, out[i].Pruned, out[i].Resumed, out[i].Replays = 0, 0, 0, 0, 0
	}
	return out
}

// perfbenchInstance rebuilds one set-up of the benchmark's syn10k-game
// workload: the SYN 10k base layout (seed 1), every task and worker moved by
// Gaussian jitter of σ = 4 drawn from stream seed·1,000,003 + k, solved on a
// 64² road grid.
func perfbenchInstance(t *testing.T, seed int64, k int) *Instance {
	t.Helper()
	p := DefaultParams(SYN)
	p.NumTasks, p.NumWorkers, p.NumCenters = 10_000, 2_500, 50
	p.Seed = 1
	base, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(k)))
	b := base.Bounds
	move := func(q Point) Point {
		q.X = min(max(q.X+rng.NormFloat64()*4, b.Min.X), b.Max.X)
		q.Y = min(max(q.Y+rng.NormFloat64()*4, b.Min.Y), b.Max.Y)
		return q
	}
	raw := &Instance{
		Centers: append([]Center(nil), base.Centers...),
		Tasks:   append([]Task(nil), base.Tasks...),
		Workers: append([]Worker(nil), base.Workers...),
		Speed:   base.Speed,
		Bounds:  base.Bounds,
	}
	for i := range raw.Tasks {
		raw.Tasks[i].Loc = move(raw.Tasks[i].Loc)
	}
	for i := range raw.Workers {
		raw.Workers[i].Loc = move(raw.Workers[i].Loc)
	}
	net, err := NewRoadNetwork(raw.Bounds, 64, 64, raw.Speed)
	if err != nil {
		t.Fatal(err)
	}
	raw.Metric = net
	in, err := Partition(raw)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestPerfbenchNonNashInstancesEndAtNash: the four syn10k-game set-ups whose
// cold solve used to fail the benchmark's equilibrium check. Each must now
// verify, keeping at least the assigned count it had before.
func TestPerfbenchNonNashInstancesEndAtNash(t *testing.T) {
	if testing.Short() {
		t.Skip("four 10k road solves")
	}
	cases := []struct {
		seed     int64
		setup    int
		assigned int // the count the non-Nash end state had
	}{
		{12, 0, 9915},
		{26, 5, 9918},
		{35, 1, 9905},
		{39, 3, 9907},
	}
	for _, tc := range cases {
		in := perfbenchInstance(t, tc.seed, tc.setup)
		rep, err := Run(in, SeqBDC)
		if err != nil {
			t.Fatal(err)
		}
		if err := collab.VerifyEquilibrium(in, rep.Solution, assign.Sequential); err != nil {
			t.Errorf("seed %d set-up %d: %v", tc.seed, tc.setup, err)
		}
		if rep.Assigned < tc.assigned {
			t.Errorf("seed %d set-up %d: assigned %d, below the %d of the non-Nash end state",
				tc.seed, tc.setup, rep.Assigned, tc.assigned)
		}
	}
}

// exactPotentialViolation checks Lemma 1 (Def. 11) on a game trace: Φ = Σρ_i
// is an exact potential of the collaboration game. Starting from the phase-1
// ratios, each step may move only its recipient's ρ, must change Φ by the
// recipient's change of utility UUP (Eq. 4), and is accepted exactly when it
// raises Φ. It returns the first violation, nil when there is none.
func exactPotentialViolation(in *Instance, phase1 []assign.Result, trace []collab.TraceStep) error {
	prev := make([]float64, len(in.Centers))
	for ci := range in.Centers {
		prev[ci] = metrics.Ratio(phase1[ci].AssignedCount(), len(in.Centers[ci].Tasks))
	}
	for _, step := range trace {
		cur, r := step.Rhos, int(step.Recipient)
		for j := range cur {
			if j != r && math.Float64bits(cur[j]) != math.Float64bits(prev[j]) {
				return fmt.Errorf("step %d: center %d is not the recipient, but its ρ moved %v → %v",
					step.Iteration, j, prev[j], cur[j])
			}
		}
		dPhi := metrics.Phi(cur) - metrics.Phi(prev)
		if dUUP := metrics.UUP(cur, r) - metrics.UUP(prev, r); math.Abs(dPhi-dUUP) > 1e-12 {
			return fmt.Errorf("step %d: ΔΦ %g, but the recipient's ΔUUP is %g", step.Iteration, dPhi, dUUP)
		}
		if step.Accepted != (dPhi > 0) {
			return fmt.Errorf("step %d: accepted=%v with ΔΦ %g", step.Iteration, step.Accepted, dPhi)
		}
		prev = cur
	}
	return nil
}

// TestPaperScaleRunsEndAtNash is the stop rule's property test over 1,000
// generated Table I instances (GM and SYN, 500 seeds each). Every uncapped
// Seq-BDC and Seq-RBDC run must pass VerifyEquilibrium, hold Lemma 1's
// exact potential along its trace and equal the reference loop bit for bit
// (work counters and wall clock aside); every Seq-DC run must hold under its
// own leftover deviation class.
func TestPaperScaleRunsEndAtNash(t *testing.T) {
	seeds := int64(500)
	if testing.Short() {
		seeds = 50
	}
	for _, d := range []Dataset{GM, SYN} {
		for seed := int64(1); seed <= seeds; seed++ {
			in, phase1 := paperInstance(t, d, seed)
			for _, random := range []bool{false, true} {
				cfg := collab.Config{Assigner: assign.Sequential}
				ref := cfg
				if random {
					cfg.Recipient, ref.Recipient = collab.RandomRecipient, collab.RandomRecipient
					cfg.Rng = rand.New(rand.NewSource(seed))
					ref.Rng = rand.New(rand.NewSource(seed))
				}
				got := collab.Run(in, phase1, cfg)
				want := collab.RunReference(in, phase1, ref)
				if !reflect.DeepEqual(got.Solution, want.Solution) ||
					!reflect.DeepEqual(gameTrace(got.Trace), gameTrace(want.Trace)) {
					t.Fatalf("%s seed %d random=%v: Run differs from RunReference", d, seed, random)
				}
				if err := collab.VerifyEquilibrium(in, got.Solution, assign.Sequential); err != nil {
					t.Fatalf("%s seed %d random=%v: %v", d, seed, random, err)
				}
				if err := exactPotentialViolation(in, phase1, got.Trace); err != nil {
					t.Fatalf("%s seed %d random=%v: %v", d, seed, random, err)
				}
			}
			dc := collab.Run(in, phase1, collab.Config{Assigner: assign.Sequential,
				Scope: collab.LeftoverOnly})
			if cert := provenance.BuildCertificate(in, dc.Solution, provenance.ScopeLeftover); !cert.Equilibrium {
				t.Fatalf("%s seed %d: Seq-DC end state has an improving leftover deviation", d, seed)
			}
		}
	}
}

// midScaleInstance generates one 2k-task instance at the scale benchmark's
// density (workload.ScaleParams) on a 32² road grid, pins the center tables
// as core.Run does, and runs the Sequential phase 1 on it.
func midScaleInstance(t *testing.T, d Dataset, seed int64) (*Instance, []assign.Result) {
	t.Helper()
	p := workload.ScaleParams(d, 2000)
	p.Seed = seed
	raw, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewRoadNetwork(raw.Bounds, 32, 32, raw.Speed)
	if err != nil {
		t.Fatal(err)
	}
	raw.Metric = net
	in, err := Partition(raw)
	if err != nil {
		t.Fatal(err)
	}
	net.PrecomputeSources(centerLocs(in))
	in.PrepareMetric()
	phase1 := make([]assign.Result, len(in.Centers))
	for ci := range in.Centers {
		c := in.Center(model.CenterID(ci))
		phase1[ci] = assign.Sequential(in, c, c.Workers, c.Tasks)
	}
	return in, phase1
}

func centerLocs(in *Instance) []Point {
	locs := make([]Point, len(in.Centers))
	for i, c := range in.Centers {
		locs[i] = c.Loc
	}
	return locs
}

// TestMidScaleRunsMatchReference is the paper-scale property test above at
// 2k tasks on a road network, where centers hold a hundred tasks and more,
// so trials walk deep into the nearest-task orders and past the end of the
// neighbour lists. Over ten GM and ten SYN instances, every uncapped Seq-BDC
// and Seq-RBDC run must equal the reference loop bit for bit and pass
// VerifyEquilibrium, and a four-shard run must give the pinned solution at
// parallelism 1 and 4. Every four-shard run here has a non-empty
// interference cut (ShardReport.Cut), so its exchange game re-contests
// boundary workers.
func TestMidScaleRunsMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("twenty 2k-task road instances against the reference loop")
	}
	// Four-shard fingerprints per dataset, seeds 1–10.
	sharded := map[Dataset][10]uint64{
		GM: {0xb9708b8d45f3aca3, 0x4d70a680be47a830, 0xa982538ae484c932, 0xdea25d4921eb5a6e,
			0x11350e475f962b8b, 0xb8ed13fc0d5a5fa7, 0x438a4d970483258a, 0xb5196dc0df12058d,
			0x680bd782eefbc6e8, 0xc272b79a46e181cb},
		SYN: {0x5dcf0cd319ae4312, 0x396199fa2d077043, 0x8d6c8c973500b418, 0x10dc7e790fc717dd,
			0x6387bfc398ffff6a, 0xcc138292dfec29b8, 0xf12bd658fa6b117f, 0x81c33cf531b00679,
			0x2fb2a5ced27fb56f, 0x45a408fb2f4080c8},
	}
	for _, d := range []Dataset{GM, SYN} {
		for seed := int64(1); seed <= 10; seed++ {
			in, phase1 := midScaleInstance(t, d, seed)
			for _, random := range []bool{false, true} {
				cfg := collab.Config{Assigner: assign.Sequential}
				ref := cfg
				if random {
					cfg.Recipient, ref.Recipient = collab.RandomRecipient, collab.RandomRecipient
					cfg.Rng = rand.New(rand.NewSource(seed))
					ref.Rng = rand.New(rand.NewSource(seed))
				}
				got := collab.Run(in, phase1, cfg)
				want := collab.RunReference(in, phase1, ref)
				if !reflect.DeepEqual(got.Solution, want.Solution) ||
					!reflect.DeepEqual(gameTrace(got.Trace), gameTrace(want.Trace)) {
					t.Fatalf("%s seed %d random=%v: Run differs from RunReference", d, seed, random)
				}
				if err := collab.VerifyEquilibrium(in, got.Solution, assign.Sequential); err != nil {
					t.Fatalf("%s seed %d random=%v: %v", d, seed, random, err)
				}
			}
			for _, par := range []int{1, 4} {
				var res collab.Result
				var rep collab.ShardReport
				atProcs(par, func() {
					res, rep = collab.RunSharded(in, phase1, collab.ShardConfig{
						Config: collab.Config{Assigner: assign.Sequential},
						Shards: 4, Seed: 7,
					})
				})
				rep.Cut(in, phase1, collab.FullReassign)
				if rep.Shards < 2 || rep.EmptyCut {
					t.Fatalf("%s seed %d: run was not sharded with a non-empty cut", d, seed)
				}
				if fp, want := provenance.SolutionFingerprint(res.Solution), sharded[d][seed-1]; fp != want {
					t.Fatalf("%s seed %d: four-shard fingerprint %016x at GOMAXPROCS %d, want %016x",
						d, seed, fp, par, want)
				}
			}
		}
	}
}
